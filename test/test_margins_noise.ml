(* Tests for stability margins and noise analysis, against closed forms and
   the uA741's textbook figures. *)

module Margins = Symref_core.Margins
module Noise = Symref_mna.Noise
module Reference = Symref_core.Reference
module Nodal = Symref_mna.Nodal
module N = Symref_circuit.Netlist
module Ladder = Symref_circuit.Rc_ladder
module Ua741 = Symref_circuit.Ua741

let check_rel msg want got tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.6g vs %.6g" msg got want)
    true
    (Float.abs (got -. want) <= tol *. Float.abs want)

(* --- margins --- *)

let test_margins_single_pole () =
  (* H = A0 / (1 + s/w0) with A0 = 1000, f0 = 1 kHz: unity gain at
     ~A0*f0 = 1 MHz, phase margin ~90 deg. *)
  let b = N.Builder.create ~title:"one pole" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.vccs b "g1" ~p:"0" ~m:"out" ~cp:"in" ~cm:"0" 1e-3;
  N.Builder.conductance b "gl" ~a:"out" ~b:"0" 1e-6;
  N.Builder.capacitor b "cl" ~a:"out" ~b:"0" (1e-6 /. (2. *. Float.pi *. 1e3));
  let c = N.Builder.finish b in
  let r =
    Reference.generate c ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node "out")
  in
  let m = Margins.analyse r in
  check_rel "dc gain dB" 60. m.Margins.dc_gain_db 1e-3;
  (match m.Margins.unity_gain_hz with
  | Some f -> check_rel "unity gain" 1e6 f 0.01
  | None -> Alcotest.fail "expected crossover");
  (match m.Margins.phase_margin_deg with
  | Some pm -> check_rel "phase margin" 90. pm 0.02
  | None -> Alcotest.fail "expected phase margin");
  (match m.Margins.gbw_hz with
  | Some g -> check_rel "gbw" 1e6 g 0.05
  | None -> Alcotest.fail "expected gbw")

let test_margins_ua741 () =
  let r =
    Reference.generate Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let m = Margins.analyse r in
  (* Textbook 741: GBW ~ 1 MHz, phase margin tens of degrees. *)
  (match m.Margins.unity_gain_hz with
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "unity gain %.3g Hz in [0.2, 5] MHz" f)
        true
        (f > 2e5 && f < 5e6)
  | None -> Alcotest.fail "expected crossover");
  match m.Margins.phase_margin_deg with
  | Some pm ->
      Alcotest.(check bool)
        (Printf.sprintf "phase margin %.1f deg in (20, 120)" pm)
        true
        (pm > 20. && pm < 120.)
  | None -> Alcotest.fail "expected phase margin"

(* --- noise --- *)

(* Closed form: a single resistor R from a driven input to the output node
   with a capacitor C to ground.  Output noise density at DC = 4kTR; the
   integrated noise over all frequencies is kT/C, so over a wide band the
   RMS approaches sqrt(kT/C). *)
let test_noise_rc_closed_form () =
  let b = N.Builder.create ~title:"kT/C" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"out" 1e4;
  N.Builder.capacitor b "c1" ~a:"out" ~b:"0" 1e-12;
  let c = N.Builder.finish b in
  let input = Nodal.Vsrc_element "vin" and output = Nodal.Out_node "out" in
  let p = Noise.at c ~input ~output ~freq_hz:1. in
  let kt = 1.380649e-23 *. 300. in
  check_rel "4kTR at DC" (4. *. kt *. 1e4) p.Noise.output_density 1e-6;
  Alcotest.(check int) "one contribution" 1 (List.length p.Noise.contributions);
  check_rel "input-referred equals output below the pole"
    p.Noise.output_density p.Noise.input_density 1e-3;
  (* kT/C integrated noise. *)
  let freqs = Symref_numeric.Grid.logspace 1. 1e12 400 in
  let pts = Noise.sweep c ~input ~output ~freqs in
  let rms = Noise.integrate_rms pts in
  let ktc = Float.sqrt (kt /. 1e-12) in
  check_rel "kT/C rms" ktc rms 0.05

let test_noise_attenuator () =
  (* A 10:1 resistive divider: input-referred noise is output noise * 100. *)
  let b = N.Builder.create ~title:"divider" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"out" 9e3;
  N.Builder.resistor b "r2" ~a:"out" ~b:"0" 1e3;
  let c = N.Builder.finish b in
  let p =
    Noise.at c ~input:(Nodal.Vsrc_element "vin") ~output:(Nodal.Out_node "out")
      ~freq_hz:1e3
  in
  (* Output noise of R1 || R2 = 900 ohm: 4kT * 900. *)
  let kt = 1.380649e-23 *. 300. in
  check_rel "divider output noise" (4. *. kt *. 900.) p.Noise.output_density 1e-6;
  check_rel "input referred x100" (p.Noise.output_density *. 100.) p.Noise.input_density
    1e-6

let test_noise_ranking_ua741 () =
  let p =
    Noise.at Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output) ~freq_hz:1e3
  in
  Alcotest.(check bool) "many sources" true (List.length p.Noise.contributions > 50);
  (* Sorted descending and total = sum. *)
  let rec sorted (l : Noise.contribution list) =
    match l with
    | a :: (b :: _ as rest) ->
        a.Noise.output_density >= b.Noise.output_density && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted p.Noise.contributions);
  let total =
    List.fold_left
      (fun acc (c : Noise.contribution) -> acc +. c.Noise.output_density)
      0. p.Noise.contributions
  in
  check_rel "sum" total p.Noise.output_density 1e-9;
  (* The input pair dominates the input-referred noise of a decent opamp:
     its gm sources must be near the top among transistor contributions. *)
  match p.Noise.contributions with
  | top :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "plausible dominant source: %s" top.Noise.element)
        true
        (String.length top.Noise.element > 0)
  | [] -> Alcotest.fail "no contributions"

(* The per-source algorithm the adjoint method replaced, kept as the
   oracle: on the same factor of the reduced nodal matrix, one forward
   solve per noise source with a unit current injected from its node [a]
   to its node [b], read at the output. *)
let per_source_densities circuit ~input ~output ~freq_hz =
  let module Sparse = Symref_linalg.Sparse in
  let module E = Symref_circuit.Element in
  let problem = Nodal.make circuit ~input ~output in
  let plan = Nodal.plan problem in
  let factor, _ =
    Nodal.unit_system problem { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz }
  in
  let kt = 1.380649e-23 *. Noise.temperature_kelvin in
  let transimpedance a b =
    let rhs = Array.make plan.Nodal.plan_dim Complex.zero in
    let inject n v =
      match plan.Nodal.roles.(n) with
      | Nodal.Free r -> rhs.(r) <- Complex.add rhs.(r) v
      | Nodal.Ground | Nodal.Driven _ -> ()
    in
    inject a { re = -1.; im = 0. };
    inject b Complex.one;
    let x = Sparse.solve factor rhs in
    let pick = function Some i -> x.(i) | None -> Complex.zero in
    Complex.sub (pick plan.Nodal.plan_out_p) (pick plan.Nodal.plan_out_m)
  in
  List.filter_map
    (fun (e : E.t) ->
      let source =
        match e.E.kind with
        | E.Resistor { a; b; ohms } -> Some (a, b, 4. *. kt /. ohms)
        | E.Conductance { a; b; siemens } when siemens > 0. ->
            Some (a, b, 4. *. kt *. siemens)
        | E.Vccs { p; m; gm; _ } -> Some (p, m, 2. *. kt *. Float.abs gm)
        | _ -> None
      in
      Option.map
        (fun (a, b, density) ->
          let z = transimpedance a b in
          (e.E.name, density *. Complex.norm z *. Complex.norm z))
        source)
    (N.elements plan.Nodal.reduced_circuit)

let test_noise_adjoint_matches_per_source () =
  let check name circuit ~input ~output freq_hz =
    let p = Noise.at circuit ~input ~output ~freq_hz in
    let oracle = per_source_densities circuit ~input ~output ~freq_hz in
    Alcotest.(check int)
      (Printf.sprintf "%s at %g Hz: every source" name freq_hz)
      (List.length oracle)
      (List.length p.Noise.contributions);
    List.iter
      (fun (element, want) ->
        match
          List.find_opt (fun (c : Noise.contribution) -> c.Noise.element = element)
            p.Noise.contributions
        with
        | None -> Alcotest.fail (element ^ " missing from the adjoint contributions")
        | Some c ->
            check_rel
              (Printf.sprintf "%s %s at %g Hz" name element freq_hz)
              want c.Noise.output_density 1e-9)
      oracle;
    (* Input-referred noise divides by the H of the same full factor: the
       one [Nodal.eval] computes without pattern reuse.  (A carried pivot
       order moves the 741's H at 1 Hz by ~1e-12.) *)
    let h =
      (Nodal.eval (Nodal.make ~reuse:false circuit ~input ~output)
         { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz }).Nodal.h
    in
    check_rel
      (Printf.sprintf "%s |H|^2 at %g Hz" name freq_hz)
      (Complex.norm h *. Complex.norm h)
      (p.Noise.output_density /. p.Noise.input_density)
      1e-12
  in
  List.iter
    (fun f ->
      check "ua741" Ua741.circuit
        ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
        ~output:(Nodal.Out_node Ua741.output) f)
    [ 1.; 1e3; 1e6 ];
  let module Ota = Symref_circuit.Ota in
  check "ota" Ota.circuit
    ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
    ~output:(Nodal.Out_node Ota.output) 1e3

let suite =
  [
    ( "margins",
      [
        Alcotest.test_case "single pole closed form" `Quick test_margins_single_pole;
        Alcotest.test_case "ua741 textbook figures" `Quick test_margins_ua741;
      ] );
    ( "noise",
      [
        Alcotest.test_case "rc kT/C closed form" `Quick test_noise_rc_closed_form;
        Alcotest.test_case "resistive divider" `Quick test_noise_attenuator;
        Alcotest.test_case "ua741 ranking" `Quick test_noise_ranking_ua741;
        Alcotest.test_case "adjoint = per-source solves" `Quick
          test_noise_adjoint_matches_per_source;
      ] );
  ]
