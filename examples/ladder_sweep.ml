(* Scalability sweep (the paper's motivation: "large analog circuits"):
   generate references for RC ladders of growing order and show where each
   method stops working — naive at ~1-2 coefficients, fixed scale at ~10-20
   coefficients, adaptive everywhere — with exact-coefficient validation
   from the ladder's closed form.

     dune exec examples/ladder_sweep.exe
*)

module Ladder = Symref_circuit.Rc_ladder
module Nodal = Symref_mna.Nodal
module Evaluator = Symref_core.Evaluator
module Naive = Symref_core.Naive
module Fixed_scale = Symref_core.Fixed_scale
module Adaptive = Symref_core.Adaptive
module Band = Symref_core.Band
module Epoly = Symref_poly.Epoly
module Ef = Symref_numeric.Extfloat

let band_width = function None -> 0 | Some b -> Band.width b

let max_rel_error exact (r : Adaptive.result) =
  let e0 = Epoly.coeff exact 0 and d0 = r.Adaptive.coeffs.(0) in
  let worst = ref 0. in
  Array.iteri
    (fun i c ->
      if r.Adaptive.established.(i) then begin
        let got = Ef.div c d0 and want = Ef.div (Epoly.coeff exact i) e0 in
        if not (Ef.is_zero want) then begin
          let rel = Ef.to_float (Ef.abs (Ef.div (Ef.sub got want) want)) in
          if rel > !worst then worst := rel
        end
      end)
    r.Adaptive.coeffs;
  !worst

let () =
  (* Graded ladders: element values spread by 1.5x per section, giving the
     wide coefficient ranges of extracted parasitic networks. *)
  let spread = 1.5 in
  Printf.printf "%-6s  %-12s  %-12s  %-8s  %-8s  %-10s\n" "order" "naive band"
    "fixed band" "passes" "LU" "max error";
  List.iter
    (fun n ->
      let circuit = Ladder.circuit ~spread n in
      let problem =
        Nodal.make circuit ~input:(Nodal.Vsrc_element "vin")
          ~output:(Nodal.Out_node Ladder.output_node)
      in
      let naive = Naive.run (Evaluator.of_nodal problem ~num:false) in
      let fixed =
        let f, g = Nodal.first_scales problem in
        Fixed_scale.run ~f ~g (Evaluator.of_nodal problem ~num:false)
      in
      let den_ev = Evaluator.of_nodal problem ~num:false in
      let adaptive = Adaptive.run den_ev in
      let exact = Ladder.exact_denominator ~spread n in
      Printf.printf "%-6d  %-3d of %-5d  %-3d of %-5d  %-8d  %-8d  %.2e%s\n" n
        (band_width naive.Naive.band) (n + 1)
        (band_width fixed.Fixed_scale.band)
        (n + 1) adaptive.Adaptive.passes adaptive.Adaptive.evaluations
        (max_rel_error exact adaptive)
        (if adaptive.Adaptive.converged then "" else "  (not converged)"))
    [ 2; 5; 10; 20; 30; 40; 60; 80 ]
