(* Tests for the nodal evaluator and the AC simulator, cross-validated
   against closed forms and against each other. *)

module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module N = Symref_circuit.Netlist
module Ladder = Symref_circuit.Rc_ladder
module Ota = Symref_circuit.Ota
module Ua741 = Symref_circuit.Ua741
module Gm_c = Symref_circuit.Gm_c
module Ec = Symref_numeric.Extcomplex
module Ef = Symref_numeric.Extfloat
module Cx = Symref_numeric.Cx
module Sparse = Symref_linalg.Sparse
module Metrics = Symref_obs.Metrics
module Inject = Symref_fault.Inject

let check_float = Alcotest.(check (float 1e-9))

let check_cx ?(rel = 1e-9) msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s vs %s" msg (Cx.to_string a) (Cx.to_string b))
    true
    (Cx.approx_equal ~rel ~abs:1e-300 a b)

(* Closed form for the 1-section RC lowpass: H = 1 / (1 + sRC). *)
let rc_lowpass_h s = Complex.div Complex.one (Complex.add Complex.one (Cx.scale 1e-9 s))

let lowpass_problem () =
  Nodal.make (Ladder.circuit 1) ~input:(Nodal.Vsrc_element "vin")
    ~output:(Nodal.Out_node Ladder.output_node)

let test_nodal_lowpass () =
  let t = lowpass_problem () in
  Alcotest.(check int) "dimension 1" 1 (Nodal.dimension t);
  Alcotest.(check int) "order bound 1" 1 (Nodal.order_bound t);
  Alcotest.(check int) "den gdeg" 1 (Nodal.den_gdeg t);
  List.iter
    (fun s ->
      let v = Nodal.eval t s in
      Alcotest.(check bool) "regular" false v.Nodal.singular;
      check_cx "H matches closed form" (rc_lowpass_h s) v.Nodal.h)
    [ Complex.one; Cx.j; Cx.make (-0.3) 0.8; Cx.jomega 1e9 ]

let test_nodal_num_den_consistency () =
  let t = lowpass_problem () in
  let s = Cx.make 0.25 (-0.7) in
  let v = Nodal.eval t s in
  (* N/D must equal H. *)
  let h = Ec.to_complex (Ec.div v.Nodal.num v.Nodal.den) in
  check_cx "N/D = H" v.Nodal.h h

let test_nodal_scaling_relation () =
  (* Scaled evaluation must satisfy D_fg(s) = g^gdeg * D(s*f/g): the
     homogeneity property (eq. 11) the whole algorithm rests on. *)
  let check_circuit name t =
    let f = 2.5e8 and g = 4.2e3 in
    let s = Cx.make 0.6 0.8 in
    let scaled = Nodal.eval ~f ~g t s in
    let unscaled = Nodal.eval t (Cx.scale (f /. g) s) in
    let gdeg = Nodal.den_gdeg t in
    let factor = Ec.of_extfloat (Ef.float_pow_int g gdeg) in
    let expect_den = Ec.mul factor unscaled.Nodal.den in
    Alcotest.(check bool)
      (name ^ ": denominator homogeneity")
      true
      (Ec.approx_equal ~rel:1e-9 expect_den scaled.Nodal.den);
    let nfactor = Ec.of_extfloat (Ef.float_pow_int g (Nodal.num_gdeg t)) in
    let expect_num = Ec.mul nfactor unscaled.Nodal.num in
    Alcotest.(check bool)
      (name ^ ": numerator homogeneity")
      true
      (Ec.approx_equal ~rel:1e-9 expect_num scaled.Nodal.num)
  in
  check_circuit "ladder"
    (Nodal.make (Ladder.circuit 4) ~input:(Nodal.Vsrc_element "vin")
       ~output:(Nodal.Out_node Ladder.output_node));
  check_circuit "ota"
    (Nodal.make Ota.circuit
       ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
       ~output:(Nodal.Out_node Ota.output))

let test_nodal_ota_dc_gain () =
  let t =
    Nodal.make Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output)
  in
  Alcotest.(check int) "dimension: t x1 x2 out" 4 (Nodal.dimension t);
  Alcotest.(check int) "order bound min(caps=9, dim=4)" 4 (Nodal.order_bound t);
  let v = Nodal.eval t Complex.zero in
  let gain = Complex.norm v.Nodal.h in
  Alcotest.(check bool)
    (Printf.sprintf "DC gain substantial (%.1f)" gain)
    true (gain > 100.)

let test_nodal_unsupported () =
  let b = N.Builder.create () in
  N.Builder.inductor b "l1" ~a:"x" ~b:"0" 1e-9;
  N.Builder.resistor b "r1" ~a:"x" ~b:"y" 1e3;
  let c = N.Builder.finish b in
  Alcotest.(check bool) "raises Unsupported" true
    (try
       ignore (Nodal.make c ~input:(Nodal.V_single "x") ~output:(Nodal.Out_node "y"));
       false
     with Nodal.Unsupported _ -> true);
  let lad = Ladder.circuit 1 in
  Alcotest.(check bool) "unknown output" true
    (try
       ignore
         (Nodal.make lad ~input:(Nodal.Vsrc_element "vin")
            ~output:(Nodal.Out_node "nowhere"));
       false
     with Nodal.Unsupported _ -> true)

let test_ac_lowpass () =
  let c = Ladder.circuit 1 in
  let fc = 1. /. (2. *. Float.pi *. 1e-9) in
  let pts = Ac.bode c ~out_p:Ladder.output_node [| fc /. 100.; fc |] in
  Alcotest.(check (float 0.01)) "flat at low freq" 0. pts.(0).Ac.mag_db;
  Alcotest.(check (float 0.01)) "-3dB at corner" (-3.0103) pts.(1).Ac.mag_db;
  Alcotest.(check (float 0.1)) "-45 deg at corner" (-45.) pts.(1).Ac.phase_deg

let test_ac_rlc_resonance () =
  (* Series RLC driven by 1V, output across C: |H| at resonance = Q. *)
  let b = N.Builder.create () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"x" 10.;
  N.Builder.inductor b "l1" ~a:"x" ~b:"out" 1e-6;
  N.Builder.capacitor b "c1" ~a:"out" ~b:"0" 1e-9;
  let c = N.Builder.finish b in
  let w0 = 1. /. Float.sqrt (1e-6 *. 1e-9) in
  let q = Float.sqrt (1e-6 /. 1e-9) /. 10. in
  let h = Ac.transfer c ~out_p:"out" [| w0 /. (2. *. Float.pi) |] in
  Alcotest.(check (float 0.02)) "peak = Q" q (Complex.norm h.(0))

let test_ac_controlled_sources () =
  (* VCVS doubling: out = 2 * in. *)
  let b = N.Builder.create () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.vcvs b "e1" ~p:"out" ~m:"0" ~cp:"in" ~cm:"0" 2.;
  N.Builder.resistor b "rl" ~a:"out" ~b:"0" 1e3;
  let c = N.Builder.finish b in
  let h = Ac.transfer c ~out_p:"out" [| 1e3 |] in
  check_cx "vcvs gain" (Cx.of_float 2.) h.(0);
  (* CCCS mirror: i(vsense) pushed into a 1 ohm resistor. *)
  let b = N.Builder.create () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"x" 1e3;
  N.Builder.vsrc b "vsense" ~p:"x" ~m:"0" 0.;
  N.Builder.cccs b "f1" ~p:"0" ~m:"out" ~vname:"vsense" 3.;
  N.Builder.resistor b "r2" ~a:"out" ~b:"0" 1.;
  let c = N.Builder.finish b in
  let h = Ac.transfer c ~out_p:"out" [| 1e3 |] in
  (* i(vsense) = 1V/1k = 1mA; out = 3 * 1mA * 1ohm = 3mV. *)
  check_cx ~rel:1e-6 "cccs" (Cx.of_float 3e-3) h.(0)

let test_ac_matches_nodal () =
  (* The two independent formulations must agree on the jw axis. *)
  let check name circuit input out_p out_m freqs =
    let t = Nodal.make circuit ~input ~output:(match out_m with
      | None -> Nodal.Out_node out_p
      | Some m -> Nodal.Out_diff (out_p, m))
    in
    (* Drive the AC simulator with explicit sources. *)
    let with_sources =
      N.extend circuit (fun b ->
          match input with
          | Nodal.V_diff (p, m) ->
              N.Builder.vsrc b "_tp" ~p ~m:"0" 0.5;
              N.Builder.vsrc b "_tm" ~p:m ~m:"0" (-0.5)
          | Nodal.V_common (p, m) ->
              N.Builder.vsrc b "_tp" ~p ~m:"0" 1.;
              N.Builder.vsrc b "_tm" ~p:m ~m:"0" 1.
          | Nodal.V_single p -> N.Builder.vsrc b "_tp" ~p ~m:"0" 1.
          | Nodal.I_single a -> N.Builder.isrc b "_ti" ~a:"0" ~b:a 1.
          | Nodal.Vsrc_element _ -> ())
    in
    let ac = Ac.transfer with_sources ~out_p ?out_m freqs in
    Array.iteri
      (fun i f ->
        let v = Nodal.eval t (Cx.jomega (2. *. Float.pi *. f)) in
        check_cx ~rel:1e-6
          (Printf.sprintf "%s @ %g Hz" name f)
          ac.(i) v.Nodal.h)
      freqs
  in
  check "ladder-4" (Ladder.circuit 4) (Nodal.Vsrc_element "vin") Ladder.output_node
    None [| 1e3; 1e6; 1e8 |];
  check "ota" Ota.circuit
    (Nodal.V_diff (Ota.input_p, Ota.input_n))
    Ota.output None [| 1.; 1e5; 1e7 |];
  check "gm-c-8" (Gm_c.circuit 8) (Nodal.V_single Gm_c.input_node)
    (Gm_c.output_node 8) None [| 1e3; 1e6 |];
  check "ua741" Ua741.circuit
    (Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    Ua741.output None [| 1.; 1e3; 1e6 |]

let test_ua741_dc_gain () =
  let t =
    Nodal.make Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let v = Nodal.eval t Complex.zero in
  let gain_db = 20. *. Float.log10 (Complex.norm v.Nodal.h) in
  Alcotest.(check bool)
    (Printf.sprintf "open-loop DC gain plausible: %.1f dB" gain_db)
    true
    (gain_db > 80. && gain_db < 140.);
  Alcotest.(check bool) "dimension ~48" true (Nodal.dimension t >= 40)

let test_unwrap () =
  let ph = [| -170.; 170.; 150.; -179.; 179. |] in
  let u = Ac.unwrap_phase_deg ph in
  check_float "first untouched" (-170.) u.(0);
  check_float "wrap down removed" (-190.) u.(1);
  check_float "no jump" (-210.) u.(2);
  check_float "wrap up removed" (-179.) u.(3);
  check_float "second wrap down" (-181.) u.(4)

(* --- the pattern chain --- *)

(* Run [f] with the counters on and zeroed, restoring the prior state. *)
let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.enable ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      if not was then Metrics.disable ())
    f

let lu_counters () =
  List.filter (fun (name, _) -> String.length name > 3 && String.sub name 0 3 = "lu.") (Metrics.all ())

let bitwise_value msg a b = Alcotest.(check bool) msg true (Test_batch.value_bits_equal a b)

let test_chain_capacitor_less () =
  (* A resistive network with a transconductance stage has no mean
     capacitance, hence no anchor scale: the chain starts from whatever
     scale pair comes first and must still agree with the full-factor
     path. *)
  let b = N.Builder.create () in
  N.Builder.resistor b "r1" ~a:"in" ~b:"a" 1e3;
  N.Builder.resistor b "r2" ~a:"a" ~b:"0" 2.2e3;
  N.Builder.vccs b "g1" ~p:"out" ~m:"0" ~cp:"a" ~cm:"0" 4e-3;
  N.Builder.resistor b "r3" ~a:"out" ~b:"0" 10e3;
  N.Builder.resistor b "r4" ~a:"out" ~b:"a" 47e3;
  let c = N.Builder.finish b in
  let mk reuse =
    Nodal.make ~reuse c ~input:(Nodal.V_single "in") ~output:(Nodal.Out_node "out")
  in
  let chain = mk true and oracle = mk false in
  Alcotest.check_raises "no mean capacitance"
    (Invalid_argument "Netlist.mean_capacitance: no capacitors") (fun () ->
      ignore (Nodal.mean_capacitance chain));
  let points = [| Complex.one; Cx.j; Cx.make (-0.6) 0.8 |] in
  List.iter
    (fun (f, g) ->
      Nodal.restart chain;
      Alcotest.(check bool) "program learned" true
        (Nodal.elimination_program ~f ~g chain <> None);
      Array.iter
        (fun s ->
          check_cx ~rel:1e-12 "H agrees with the full-factor path"
            (Nodal.eval ~f ~g oracle s).Nodal.h (Nodal.eval ~f ~g chain s).Nodal.h)
        points;
      let batch = Nodal.eval_batch ~f ~g chain points in
      Array.iteri
        (fun i s -> bitwise_value "eval_batch = eval" (Nodal.eval ~f ~g chain s) batch.(i))
        points)
    [ (1., 1.); (1e3, 1e-3); (1e-6, 1e6) ]

let test_chain_floor_check_side_effect_free () =
  (* The floor check that decides whether a pattern is carried to a new
     scale pair runs the numeric replay, yet must consume no fault-hook hit
     and touch no [lu.*] counter: an armed plan and the LU accounting see
     exactly what they saw before chains existed. *)
  let t =
    Nodal.make Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let f0 = 1. /. Nodal.mean_capacitance t and g0 = 1. /. Nodal.mean_conductance t in
  with_metrics @@ fun () ->
  Fun.protect ~finally:Inject.disable @@ fun () ->
  Inject.enable ();
  Inject.arm Inject.sparse_singular (Inject.Every 1);
  let prog = Nodal.elimination_program ~f:f0 ~g:g0 t in
  Alcotest.(check bool) "anchor learned" true (prog <> None);
  Alcotest.(check int) "one learn" 1 (Metrics.value Metrics.pattern_misses);
  let lu = lu_counters () in
  (* A nearby scale pair: the anchor's pivots still pass the floor. *)
  let carried = Nodal.elimination_program ~f:(f0 *. 1.5) ~g:(g0 /. 1.5) t in
  Alcotest.(check bool) "pattern carried, not re-learned" true
    (Option.get carried == Option.get prog
    && Metrics.value Metrics.pattern_misses = 1
    && Metrics.value Metrics.pattern_hits = 1);
  Alcotest.(check int) "no fault-hook hit consumed" 0 (Inject.hits Inject.sparse_singular);
  Alcotest.(check (list (pair string int))) "lu.* counters untouched" lu (lu_counters ());
  (* The same test on the bare pattern, in [Sparse]. *)
  let entry i j = Cx.make (if i = j then 4. -. float_of_int i else 1.) 0. in
  let bld = Sparse.create 3 in
  List.iter
    (fun (i, j) -> Sparse.add bld i j (entry i j))
    [ (0, 0); (0, 1); (1, 0); (1, 1); (1, 2); (2, 1); (2, 2) ];
  match Sparse.symbolic bld with
  | None -> Alcotest.fail "tridiagonal matrix is regular"
  | Some (pat, _) ->
      let lu = lu_counters () in
      let coords = Sparse.pattern_coords pat in
      let vals = Array.map (fun (i, j) -> entry i j) coords in
      let tiny = Array.map (fun (i, j) -> if i = j then Cx.make 1e-9 0. else entry i j) coords in
      Alcotest.(check bool) "learned values pass" true (Sparse.floor_holds pat vals);
      Alcotest.(check bool) "tiny diagonal fails the floor" false (Sparse.floor_holds pat tiny);
      Alcotest.(check int) "Sparse: no hit consumed" 0 (Inject.hits Inject.sparse_singular);
      Alcotest.(check (list (pair string int))) "Sparse: lu.* untouched" lu (lu_counters ());
      (* The armed hook is still there for the next refactor. *)
      Alcotest.(check bool) "refactor still sees the armed plan" true
        (Sparse.refactor pat vals = None);
      Alcotest.(check int) "one hit, by refactor" 1 (Inject.hits Inject.sparse_singular)

let suite =
  [
    ( "nodal",
      [
        Alcotest.test_case "rc lowpass closed form" `Quick test_nodal_lowpass;
        Alcotest.test_case "N/D consistency" `Quick test_nodal_num_den_consistency;
        Alcotest.test_case "scaling homogeneity (eq 11)" `Quick test_nodal_scaling_relation;
        Alcotest.test_case "ota dc gain" `Quick test_nodal_ota_dc_gain;
        Alcotest.test_case "unsupported inputs" `Quick test_nodal_unsupported;
        Alcotest.test_case "chain: capacitor-less circuit" `Quick test_chain_capacitor_less;
        Alcotest.test_case "chain: floor check side-effect free" `Quick
          test_chain_floor_check_side_effect_free;
      ] );
    ( "ac",
      [
        Alcotest.test_case "rc lowpass bode" `Quick test_ac_lowpass;
        Alcotest.test_case "rlc resonance" `Quick test_ac_rlc_resonance;
        Alcotest.test_case "controlled sources" `Quick test_ac_controlled_sources;
        Alcotest.test_case "ac matches nodal" `Quick test_ac_matches_nodal;
        Alcotest.test_case "ua741 dc gain" `Quick test_ua741_dc_gain;
        Alcotest.test_case "phase unwrap" `Quick test_unwrap;
      ] );
  ]
