(* Downstream design insight from accurate references: pole/zero extraction
   (meaningless on round-off-corrupted coefficients) and element
   sensitivities on a gm-C biquad cascade with known answers.

     dune exec examples/poles_and_sensitivity.exe
*)

module Biquad = Symref_circuit.Biquad
module Nodal = Symref_mna.Nodal
module Sensitivity = Symref_mna.Sensitivity
module Reference = Symref_core.Reference
module Poles = Symref_core.Poles
module Cx = Symref_numeric.Cx

let () =
  (* A 6th-order 1 MHz Butterworth lowpass: three biquads with the classic
     Q values 0.518, 0.707, 1.932. *)
  let designs =
    List.map
      (fun q -> { Biquad.f0_hz = 1e6; q; gm = 40e-6 })
      [ 0.5176; 0.7071; 1.9319 ]
  in
  let circuit = Biquad.cascade designs in
  let input = Nodal.Vsrc_element "vin" in
  let output = Nodal.Out_node "out" in

  let r = Reference.generate circuit ~input ~output in
  Printf.printf "references: den order %d, %d LU evaluations total\n\n"
    r.Reference.den.Symref_core.Adaptive.effective_order
    (Reference.total_evaluations r);

  (* Poles vs the design targets. *)
  let a = Poles.analyse r in
  Format.printf "%a@." Poles.pp a;
  print_endline "designed:";
  List.iter
    (fun (d : Biquad.design) ->
      Printf.printf "  pole pair at %g Hz, Q = %.4f\n" d.Biquad.f0_hz d.Biquad.q)
    designs;

  (* Who sets the passband edge?  Sensitivities at the corner. *)
  print_endline "\nsensitivities at 1 MHz (top 8):";
  let entries = Sensitivity.adjoint_at circuit ~input ~output ~freq_hz:1e6 in
  List.iteri
    (fun i (e : Sensitivity.entry) ->
      if i < 8 then
        Printf.printf "  %-10s |S| = %-8.3f (%+.4f dB per +1%%)\n"
          e.Sensitivity.element
          (Complex.norm e.Sensitivity.s)
          e.Sensitivity.mag_db_per_percent)
    entries;

  (* The highest-Q section must dominate the corner behaviour. *)
  let max_by_prefix p =
    List.fold_left
      (fun acc (e : Sensitivity.entry) ->
        if String.length e.Sensitivity.element >= String.length p
           && String.sub e.Sensitivity.element 0 (String.length p) = p
        then Float.max acc (Complex.norm e.Sensitivity.s)
        else acc)
      0. entries
  in
  Printf.printf "\nper-section worst |S| at the corner: b1 %.3f, b2 %.3f, b3 %.3f\n"
    (max_by_prefix "b1.") (max_by_prefix "b2.") (max_by_prefix "b3.");
  print_endline "(the Q = 1.93 section, b3, dominates - as any filter designer expects)"
