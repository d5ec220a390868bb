(* Tests for the interpolation engines: band detection, scaling calculus,
   single passes, and the full adaptive algorithm against synthetic
   polynomials and circuit oracles. *)

module Band = Symref_core.Band
module Scaling = Symref_core.Scaling
module Interp = Symref_core.Interp
module Naive = Symref_core.Naive
module Fixed_scale = Symref_core.Fixed_scale
module Adaptive = Symref_core.Adaptive
module Evaluator = Symref_core.Evaluator
module Reference = Symref_core.Reference
module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module Ladder = Symref_circuit.Rc_ladder
module Ota = Symref_circuit.Ota
module Gm_c = Symref_circuit.Gm_c
module Epoly = Symref_poly.Epoly
module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex
module Cx = Symref_numeric.Cx

let check_float = Alcotest.(check (float 1e-9))

(* A synthetic polynomial with the paper's signature properties: consecutive
   coefficients separated by [slope] decades (1e6..1e12 in real ICs), and a
   log-concave profile ([curvature] decades of quadratic droop) like real
   determinant coefficient sequences — the curvature is what defeats any
   single scale pair beyond ~10th order (§3.1). *)
let steep_poly ?(alternate = false) ?(curvature = 0.) ~slope ~degree () =
  Epoly.of_coeffs
    (Array.init (degree + 1) (fun i ->
         let sign = if alternate && i mod 2 = 1 then -1. else 1. in
         let fi = float_of_int i in
         let exponent =
           -.(float_of_int slope *. fi) -. (curvature *. fi *. fi /. 2.)
         in
         let frac = exponent -. Float.round exponent in
         Ef.mul
           (Ef.of_decimal
              (sign *. (1. +. (0.37 *. float_of_int (i mod 3))))
              (int_of_float (Float.round exponent)))
           (Ef.of_float (Float.exp (frac *. Float.log 10.)))))

let steep_evaluator ?alternate ?curvature ?(gdeg_extra = 0) ~slope ~degree () =
  let p = steep_poly ?alternate ?curvature ~slope ~degree () in
  Evaluator.of_epoly ~gdeg:(degree + gdeg_extra)
    ~f0:(Float.exp (float_of_int slope *. Float.log 10.))
    ~g0:1. p

(* --- Band --- *)

let ec x = Ec.of_complex { Complex.re = x; im = 0. }

let test_band_detect () =
  (* Profile: 1e-20, 1e-3, 1, 1e-2, 1e-9, 1e-16 -> sigma=6 keeps >= 1e-7. *)
  let coeffs = Array.map ec [| 1e-20; 1e-3; 1.; 1e-2; 1e-9; 1e-16 |] in
  match Band.detect ~sigma:6 ~base:10 coeffs with
  | None -> Alcotest.fail "expected a band"
  | Some b ->
      Alcotest.(check int) "lo" 11 b.Band.lo;
      Alcotest.(check int) "hi" 13 b.Band.hi;
      Alcotest.(check int) "peak" 12 b.Band.peak;
      Alcotest.(check int) "width" 3 (Band.width b);
      Alcotest.(check bool) "contains" true (Band.contains b 11);
      Alcotest.(check bool) "not contains" false (Band.contains b 14)

let test_band_floor () =
  let coeffs = Array.map ec [| 1e-10; 3e-10; 2e-10 |] in
  Alcotest.(check bool) "band exists without floor" true
    (Band.detect ~sigma:6 ~base:0 coeffs <> None);
  Alcotest.(check bool) "floor suppresses noise window" true
    (Band.detect ~min_mag:(Ef.of_float 1e-5) ~sigma:6 ~base:0 coeffs = None);
  Alcotest.(check bool) "all-zero gives none" true
    (Band.detect ~sigma:6 ~base:0 (Array.map ec [| 0.; 0. |]) = None)

(* --- Scaling --- *)

let test_scaling_roundtrip () =
  let pair = { Scaling.f = 2.5e9; g = 1e4 } in
  let p = Ef.of_decimal (-3.3) (-40) in
  let n = Scaling.normalize ~gdeg:12 pair 5 p in
  let back = Scaling.denormalize ~gdeg:12 pair 5 n in
  Alcotest.(check bool) "roundtrip" true (Ef.approx_equal ~rel:1e-12 p back)

let test_scaling_tilt_direction () =
  let pair = { Scaling.f = 1e9; g = 1e4 } in
  let up =
    Scaling.tilt ~dir:`Up ~r:1. ~edge:12 ~edge_mag:(Ef.of_decimal 1. 110)
      ~peak:3 ~peak_mag:(Ef.of_decimal 1. 117) pair
  in
  Alcotest.(check bool) "up raises f/g" true (up.Scaling.f /. up.Scaling.g > 1e5);
  let down =
    Scaling.tilt ~dir:`Down ~r:1. ~edge:3 ~edge_mag:(Ef.of_decimal 1. 110)
      ~peak:12 ~peak_mag:(Ef.of_decimal 1. 117) pair
  in
  Alcotest.(check bool) "down lowers f/g" true (down.Scaling.f /. down.Scaling.g < 1e5)

let test_scaling_tilt_window_placement () =
  (* After the tilt, the old edge must outrank the old peak by ~10^(13+r):
     the new window starts near the old edge (paper's objective for eq 14). *)
  let gdeg = 20 in
  let pair = { Scaling.f = 1e8; g = 1e3 } in
  let p_m = Ef.of_decimal 1. 100 and p_e = Ef.of_decimal 1. 94 in
  let m = 4 and e = 11 in
  let tilted =
    Scaling.tilt ~dir:`Up ~r:1. ~edge:e ~edge_mag:p_e ~peak:m ~peak_mag:p_m pair
  in
  (* Reconstruct normalized magnitudes at the new scale. *)
  let renorm i mag =
    Ef.mul mag (Scaling.renormalize_factor ~gdeg ~from_:pair ~to_:tilted i)
  in
  let new_e = renorm e p_e and new_m = renorm m p_m in
  let gap = Ef.log10_abs new_e -. Ef.log10_abs new_m in
  Alcotest.(check (float 0.2)) "edge now 13+r decades above peak" 14. gap

let test_scaling_rebalance_cap () =
  let pair = { Scaling.f = 1e17; g = 1e2 } in
  let up =
    Scaling.tilt ~dir:`Up ~r:1. ~edge:30 ~edge_mag:(Ef.of_decimal 1. 90)
      ~peak:10 ~peak_mag:(Ef.of_decimal 1. 97) pair
  in
  Alcotest.(check bool) "f capped" true (up.Scaling.f <= Scaling.magnitude_cap *. 1.001);
  Alcotest.(check bool) "g positive" true (up.Scaling.g > 0.)

let test_gap_fill () =
  let a = { Scaling.f = 1e6; g = 1e2 } and b = { Scaling.f = 1e10; g = 1e4 } in
  let m = Scaling.gap_fill a b in
  check_float "f geometric mean" 1e8 m.Scaling.f;
  check_float "g geometric mean" 1e3 m.Scaling.g

(* --- Interp on synthetic evaluators --- *)

let test_interp_exact_recovery () =
  (* Mild coefficients: one pass recovers everything. *)
  let p = Epoly.of_floats [| 4.; -3.; 2.; 1.; -0.5 |] in
  let ev = Evaluator.of_epoly ~gdeg:4 ~f0:1. ~g0:1. p in
  let pass = Interp.run ev ~scale:{ Scaling.f = 1.; g = 1. } ~k:5 in
  Array.iteri
    (fun i c ->
      check_float (Printf.sprintf "coeff %d" i)
        (Ef.to_float (Epoly.coeff p i))
        (Ef.to_float (Ec.re c)))
    pass.Interp.normalized

let test_interp_conj_symmetry_halves_evals () =
  let p = Epoly.of_floats [| 1.; 2.; 3.; 4.; 5.; 6.; 7. |] in
  let mk () = Evaluator.of_epoly ~gdeg:6 ~f0:1. ~g0:1. p in
  let ev1 = mk () in
  let full = Interp.run ~conj_symmetry:false ev1 ~scale:{ Scaling.f = 1.; g = 1. } ~k:7 in
  let ev2 = mk () in
  let half = Interp.run ~conj_symmetry:true ev2 ~scale:{ Scaling.f = 1.; g = 1. } ~k:7 in
  Alcotest.(check int) "full evals" 7 full.Interp.evaluations;
  Alcotest.(check int) "half evals" 4 half.Interp.evaluations;
  Array.iteri
    (fun i c ->
      check_float (Printf.sprintf "agree %d" i)
        (Ef.to_float (Ec.re full.Interp.normalized.(i)))
        (Ef.to_float (Ec.re c)))
    half.Interp.normalized

let test_interp_deflation () =
  (* Known low coefficients; recover the high ones from a reduced problem. *)
  let p = Epoly.of_floats [| 10.; 20.; 3.; 4.; 5. |] in
  let ev = Evaluator.of_epoly ~gdeg:4 ~f0:1. ~g0:1. p in
  let known = [ (0, Ef.of_float 10.); (1, Ef.of_float 20.) ] in
  let pass = Interp.run ~known ~base:2 ev ~scale:{ Scaling.f = 1.; g = 1. } ~k:3 in
  Alcotest.(check int) "3 points only" 3 pass.Interp.points;
  check_float "p2" 3. (Ef.to_float (Ec.re pass.Interp.normalized.(0)));
  check_float "p3" 4. (Ef.to_float (Ec.re pass.Interp.normalized.(1)));
  check_float "p4" 5. (Ef.to_float (Ec.re pass.Interp.normalized.(2)))

let test_interp_pow2_dispatch () =
  (* k = 8 exercises the FFT path, k = 9 the direct IDFT; the recovered
     coefficients must agree. *)
  let p = Epoly.of_floats [| 1.; -2.; 3.; -4.; 5.; -6.; 7.; -8. |] in
  let run k =
    let ev = Evaluator.of_epoly ~gdeg:7 ~f0:1. ~g0:1. p in
    Interp.run ~conj_symmetry:false ev ~scale:{ Scaling.f = 1.; g = 1. } ~k
  in
  let a = run 8 and b = run 9 in
  for i = 0 to 7 do
    check_float
      (Printf.sprintf "pow2 vs direct coeff %d" i)
      (Ef.to_float (Ec.re b.Interp.normalized.(i)))
      (Ef.to_float (Ec.re a.Interp.normalized.(i)))
  done

(* Failure injection: a 1e-14-level multiplicative noise on every evaluation
   (worse than honest LU round-off) must not break 5-digit recovery — the
   sigma = 6 headroom of eq. 12 absorbs it. *)
let noisy_evaluator (ev : Evaluator.t) =
  let state = ref 123456789 in
  let noise () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. float_of_int 0x3FFFFFFF -. 0.5) *. 2e-14
  in
  {
    ev with
    Evaluator.eval =
      (fun ~f ~g s ->
        let v = ev.Evaluator.eval ~f ~g s in
        Ec.mul_complex v { Complex.re = 1. +. noise (); im = noise () });
  }

let test_adaptive_with_noise () =
  let truth = steep_poly ~alternate:true ~curvature:0.3 ~slope:7 ~degree:40 () in
  let ev = noisy_evaluator (steep_evaluator ~alternate:true ~curvature:0.3 ~slope:7 ~degree:40 ()) in
  let r = Adaptive.run ev in
  Alcotest.(check bool) "converged" true r.Adaptive.converged;
  for i = 0 to 40 do
    if r.Adaptive.established.(i) then
      Alcotest.(check bool)
        (Printf.sprintf "coeff %d to >=4 digits under noise" i)
        true
        (Ef.approx_equal ~rel:1e-4 (Epoly.coeff truth i) r.Adaptive.coeffs.(i))
  done;
  (* Nothing silently lost: all 41 coefficients established. *)
  Alcotest.(check int) "all established" 41
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.Adaptive.established)

(* --- Naive engine: reproduces the paper's failure mode --- *)

let test_naive_on_mild_poly () =
  let p = Epoly.of_floats [| 1.; 0.5; 0.25; 0.125 |] in
  let ev = Evaluator.of_epoly ~gdeg:3 ~f0:1. ~g0:1. p in
  let r = Naive.run ev in
  (match r.Naive.band with
  | None -> Alcotest.fail "expected full band"
  | Some b ->
      Alcotest.(check int) "lo" 0 b.Band.lo;
      Alcotest.(check int) "hi" 3 b.Band.hi);
  Alcotest.(check (float 0.01)) "no garbage" 0. (Naive.garbage_fraction r)

let test_naive_fails_on_steep_poly () =
  (* 6 decades per power, degree 9: exactly the §2.2 scenario. *)
  let ev = steep_evaluator ~slope:6 ~degree:9 () in
  let r = Naive.run ev in
  (match r.Naive.band with
  | None -> Alcotest.fail "expected some band"
  | Some b ->
      Alcotest.(check bool)
        (Printf.sprintf "band [%d..%d] misses most coefficients" b.Band.lo b.Band.hi)
        true
        (Band.width b <= 4));
  Alcotest.(check bool)
    (Printf.sprintf "garbage fraction %.2f substantial" (Naive.garbage_fraction r))
    true
    (Naive.garbage_fraction r > 0.3)

(* --- Fixed scale: Table 1b logic --- *)

let test_fixed_scale_recovers_band () =
  let ev = steep_evaluator ~slope:6 ~degree:9 () in
  (* Frequency scale 1e6 makes scaled coefficients all ~1. *)
  let r = Fixed_scale.run ~f:1e6 ev in
  match r.Fixed_scale.band with
  | None -> Alcotest.fail "expected a band"
  | Some b ->
      Alcotest.(check int) "full band lo" 0 b.Band.lo;
      Alcotest.(check int) "full band hi" 9 b.Band.hi;
      (* Denormalized values match the construction. *)
      let truth = steep_poly ~slope:6 ~degree:9 () in
      for i = 0 to 9 do
        Alcotest.(check bool)
          (Printf.sprintf "coeff %d to 6 digits" i)
          true
          (Ef.approx_equal ~rel:1e-6 (Epoly.coeff truth i) r.Fixed_scale.denormalized.(i))
      done

let test_fixed_scale_partial_band () =
  (* Degree 40 at 6 decades/power: no single scale covers all 41. *)
  let ev = steep_evaluator ~curvature:0.3 ~slope:6 ~degree:40 () in
  let r = Fixed_scale.run ~f:1e6 ev in
  match r.Fixed_scale.band with
  | None -> Alcotest.fail "expected a band"
  | Some b ->
      Alcotest.(check bool)
        (Printf.sprintf "band [%d..%d] cannot cover 41 coefficients" b.Band.lo b.Band.hi)
        true
        (Band.width b < 41)

(* --- Adaptive: the paper's algorithm --- *)

let check_adaptive_recovers ?alternate ?curvature ?(config = Adaptive.default_config)
    ~slope ~degree () =
  let truth = steep_poly ?alternate ?curvature ~slope ~degree () in
  let ev = steep_evaluator ?alternate ?curvature ~slope ~degree () in
  let r = Adaptive.run ~config ev in
  Alcotest.(check bool) "converged" true r.Adaptive.converged;
  Alcotest.(check int) "effective order" degree r.Adaptive.effective_order;
  for i = 0 to degree do
    Alcotest.(check bool)
      (Printf.sprintf "coeff %d established" i)
      true r.Adaptive.established.(i);
    Alcotest.(check bool)
      (Printf.sprintf "coeff %d to >=5 digits (slope %d)" i slope)
      true
      (Ef.approx_equal ~rel:1e-5 (Epoly.coeff truth i) r.Adaptive.coeffs.(i))
  done;
  r

let test_adaptive_moderate () =
  let r = check_adaptive_recovers ~slope:6 ~degree:9 () in
  Alcotest.(check bool) "single pass suffices" true (r.Adaptive.passes <= 2)

let test_adaptive_large () =
  (* Degree 48, 7 decades/power with curvature: the uA741 situation; needs
     several bands. *)
  let r = check_adaptive_recovers ~alternate:true ~curvature:0.3 ~slope:7 ~degree:48 () in
  Alcotest.(check bool)
    (Printf.sprintf "multiple passes (%d)" r.Adaptive.passes)
    true
    (r.Adaptive.passes >= 3);
  Alcotest.(check bool) "3-6 passes expected" true (r.Adaptive.passes <= 8)

let test_adaptive_extreme_spread () =
  (* 12 decades per power over 30 orders: 360 decades total. *)
  ignore (check_adaptive_recovers ~curvature:0.5 ~slope:12 ~degree:30 ())

let test_adaptive_without_reduction () =
  let config = { Adaptive.default_config with Adaptive.reduce = false } in
  ignore (check_adaptive_recovers ~config ~alternate:true ~curvature:0.3 ~slope:7 ~degree:48 ())

let test_adaptive_overestimated_order () =
  (* True degree 5, order bound 12: coefficients 6..12 must be declared zero
     (the paper's "identically 0 over the n-th power" criterion). *)
  let truth = steep_poly ~slope:6 ~degree:5 () in
  let padded =
    Epoly.of_coeffs
      (Array.init 13 (fun i -> if i <= 5 then Epoly.coeff truth i else Ef.zero))
  in
  let ev =
    Evaluator.of_epoly ~gdeg:12 ~f0:1e6 ~g0:1. padded
  in
  (* order_bound is degree of padded = 5 after trim... rebuild with explicit
     bound by using a tiny but non-zero top coefficient instead. *)
  ignore ev;
  let ev =
    Evaluator.of_epoly ~gdeg:12 ~f0:1e6 ~g0:1.
      (Epoly.of_coeffs
         (Array.init 13 (fun i ->
              if i <= 5 then Epoly.coeff truth i
              else if i = 12 then Ef.of_decimal 1. (-300)
              else Ef.zero)))
  in
  let r = Adaptive.run ev in
  Alcotest.(check bool) "converged" true r.Adaptive.converged;
  for i = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "low coeff %d" i)
      true
      (Ef.approx_equal ~rel:1e-5 (Epoly.coeff truth i) r.Adaptive.coeffs.(i))
  done;
  for i = 6 to 11 do
    Alcotest.(check bool)
      (Printf.sprintf "high coeff %d zero" i)
      true
      (Ef.is_zero r.Adaptive.coeffs.(i) || not r.Adaptive.established.(i))
  done

let test_adaptive_ratios () =
  let r = check_adaptive_recovers ~slope:6 ~degree:9 () in
  let ratios = Adaptive.coefficient_ratios r in
  Array.iter
    (fun d ->
      if not (Float.is_nan d) then
        Alcotest.(check (float 0.7)) "approx -6 decades per power" (-6.) d)
    ratios

(* --- Integration: RC ladder against the exact ABCD oracle --- *)

let ladder_reference n =
  Reference.generate (Ladder.circuit n) ~input:(Nodal.Vsrc_element "vin")
    ~output:(Nodal.Out_node Ladder.output_node)

let test_ladder_exact_match () =
  List.iter
    (fun n ->
      let r = ladder_reference n in
      let exact = Ladder.exact_denominator n in
      let den = Reference.denominator r in
      Alcotest.(check int)
        (Printf.sprintf "ladder %d: denominator degree" n)
        n (Epoly.degree den);
      (* Compare coefficient ratios p_i / p_0 (the engine's D carries an
         arbitrary constant factor relative to the ABCD form). *)
      let d0 = Epoly.coeff den 0 and e0 = Epoly.coeff exact 0 in
      for i = 0 to n do
        let got = Ef.div (Epoly.coeff den i) d0 in
        let want = Ef.div (Epoly.coeff exact i) e0 in
        Alcotest.(check bool)
          (Printf.sprintf "ladder %d coeff %d: %s vs %s" n i (Ef.to_string got)
             (Ef.to_string want))
          true
          (Ef.approx_equal ~rel:1e-5 got want)
      done;
      (* Numerator of the unloaded ladder is the constant N = H(0)*D(0). *)
      Alcotest.(check int)
        (Printf.sprintf "ladder %d: numerator degree" n)
        0
        r.Reference.num.Adaptive.effective_order)
    [ 1; 2; 5; 10; 25; 40 ]

(* --- Integration: reconstructed H(s) against direct solves --- *)

let check_transfer_consistency name reference problem omegas =
  List.iter
    (fun w ->
      let direct = (Nodal.eval problem (Cx.jomega w)).Nodal.h in
      let recon = Reference.eval reference (Cx.jomega w) in
      Alcotest.(check bool)
        (Printf.sprintf "%s at w=%g: %s vs %s" name w (Cx.to_string direct)
           (Cx.to_string recon))
        true
        (Cx.approx_equal ~rel:1e-4 direct recon))
    omegas

let test_ota_reference () =
  let input = Nodal.V_diff (Ota.input_p, Ota.input_n) in
  let output = Nodal.Out_node Ota.output in
  let r = Reference.generate Ota.circuit ~input ~output in
  Alcotest.(check bool) "num converged" true r.Reference.num.Adaptive.converged;
  Alcotest.(check bool) "den converged" true r.Reference.den.Adaptive.converged;
  let problem = Nodal.make Ota.circuit ~input ~output in
  check_transfer_consistency "ota" r problem [ 0.; 1e3; 1e6; 1e8; 1e10 ];
  Alcotest.(check bool) "dc gain matches" true
    (Float.abs (Reference.dc_gain r) > 100.)

(* dc_gain at a degenerate constant term: the divergence must keep the
   numerator's sign, and 0/0 must be reported as indeterminate, never as a
   confident +inf. *)
let set_coeff0 (res : Adaptive.result) v =
  let coeffs = Array.copy res.Adaptive.coeffs in
  coeffs.(0) <- v;
  { res with Adaptive.coeffs }

let test_dc_gain_signed_divergence () =
  let c = Ladder.circuit 2 in
  let r =
    Reference.generate c ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node Ladder.output_node)
  in
  Alcotest.(check bool) "baseline finite" true
    (Float.is_finite (Reference.dc_gain r));
  Alcotest.(check bool) "baseline positive" true (Reference.dc_gain r > 0.);
  let n0 = Epoly.coeff (Reference.numerator r) 0 in
  let degenerate = { r with Reference.den = set_coeff0 r.Reference.den Ef.zero } in
  Alcotest.(check bool) "n0 > 0, d0 = 0 -> +inf" true
    (Reference.dc_gain degenerate = infinity);
  let negated =
    { degenerate with Reference.num = set_coeff0 degenerate.Reference.num (Ef.neg n0) }
  in
  Alcotest.(check bool) "n0 < 0, d0 = 0 -> -inf" true
    (Reference.dc_gain negated = neg_infinity);
  let indeterminate =
    { degenerate with Reference.num = set_coeff0 degenerate.Reference.num Ef.zero }
  in
  Alcotest.(check bool) "0/0 -> nan" true
    (Float.is_nan (Reference.dc_gain indeterminate))

let test_gmc_reference () =
  let c = Gm_c.circuit 10 in
  let input = Nodal.V_single Gm_c.input_node in
  let output = Nodal.Out_node (Gm_c.output_node 10) in
  let r = Reference.generate c ~input ~output in
  Alcotest.(check int) "10th order denominator" 10
    r.Reference.den.Adaptive.effective_order;
  let problem = Nodal.make c ~input ~output in
  check_transfer_consistency "gm-c" r problem [ 0.; 1e5; 1e6; 1e7; 3e7 ]

let test_tuning_robustness () =
  (* The sigma and r knobs must not break convergence or change the answer
     beyond the requested precision. *)
  let problem =
    Nodal.make Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output)
  in
  let run config = Adaptive.run ~config (Evaluator.of_nodal problem ~num:false) in
  let base = run Adaptive.default_config in
  List.iter
    (fun config ->
      let r = run config in
      Alcotest.(check bool) "converged" true r.Adaptive.converged;
      Alcotest.(check int) "same order" base.Adaptive.effective_order
        r.Adaptive.effective_order;
      Array.iteri
        (fun i c ->
          if base.Adaptive.established.(i) && r.Adaptive.established.(i) then
            Alcotest.(check bool)
              (Printf.sprintf "coeff %d agrees across configs" i)
              true
              (Ef.approx_equal ~rel:1e-4 c r.Adaptive.coeffs.(i)))
        base.Adaptive.coeffs)
    [
      { Adaptive.default_config with Adaptive.sigma = 4 };
      { Adaptive.default_config with Adaptive.sigma = 8 };
      { Adaptive.default_config with Adaptive.r = 0.3 };
      { Adaptive.default_config with Adaptive.r = 2.5 };
      { Adaptive.default_config with Adaptive.dry_passes = 4 };
    ]

let test_ua741_reference () =
  let module Ua741 = Symref_circuit.Ua741 in
  let module N = Symref_circuit.Netlist in
  let r =
    Reference.generate Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let den = r.Reference.den in
  Alcotest.(check bool) "den converged" true den.Adaptive.converged;
  Alcotest.(check bool)
    (Printf.sprintf "den order ~48 (%d)" den.Adaptive.effective_order)
    true
    (den.Adaptive.effective_order >= 40);
  Alcotest.(check bool) "d0 established" true den.Adaptive.established.(0);
  (* Adaptive needed several interpolations (Tables 2a/2b/3: three bands). *)
  let fertile =
    List.length (List.filter (fun p -> p.Adaptive.fresh > 0) den.Adaptive.reports)
  in
  Alcotest.(check bool)
    (Printf.sprintf "3+ productive bands (%d)" fertile)
    true (fertile >= 3);
  (* Fig. 2: Bode from coefficients vs the independent AC simulator. *)
  let freqs = Symref_numeric.Grid.decades ~start:1. ~stop:1e8 ~per_decade:5 in
  let with_sources =
    N.extend Ua741.circuit (fun b ->
        N.Builder.vsrc b "_tp" ~p:Ua741.input_p ~m:"0" 0.5;
        N.Builder.vsrc b "_tm" ~p:Ua741.input_n ~m:"0" (-0.5))
  in
  let sim = Ac.bode with_sources ~out_p:Ua741.output freqs in
  let dmag, dph = Reference.bode_vs_simulator r sim in
  Alcotest.(check bool)
    (Printf.sprintf "bode magnitude match (%.4f dB)" dmag)
    true (dmag < 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "bode phase match (%.4f deg)" dph)
    true (dph < 0.1);
  (* DC open-loop gain in the 741's ballpark. *)
  let gain_db = 20. *. Float.log10 (Float.abs (Reference.dc_gain r)) in
  Alcotest.(check bool)
    (Printf.sprintf "dc gain %.1f dB" gain_db)
    true
    (gain_db > 80. && gain_db < 140.)

let test_domains_bit_identical () =
  (* Fanning the point evaluations of a pass over several domains must not
     change a single bit: same normalized coefficients, ceiling and counts.
     Exercised on the ua741 denominator, the paper's stress case. *)
  let module Ua741 = Symref_circuit.Ua741 in
  let problem =
    Nodal.make Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let ev = Evaluator.of_nodal problem ~num:false in
  let scale = Scaling.initial ev in
  let k = Nodal.order_bound problem + 1 in
  let base = Interp.run ev ~scale ~k in
  List.iter
    (fun d ->
      let p = Interp.run ~domains:d ev ~scale ~k in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d normalized bit-identical" d)
        true
        (p.Interp.normalized = base.Interp.normalized);
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d ceiling bit-identical" d)
        true
        (p.Interp.ceiling = base.Interp.ceiling);
      Alcotest.(check int)
        (Printf.sprintf "domains=%d same points" d)
        base.Interp.points p.Interp.points;
      Alcotest.(check int)
        (Printf.sprintf "domains=%d same evaluations" d)
        base.Interp.evaluations p.Interp.evaluations)
    [ 2; 3; 4 ];
  (* End to end: a full adaptive run with parallel passes. *)
  let config = { Adaptive.default_config with Adaptive.domains = 4 } in
  let seq = Adaptive.run (Evaluator.of_nodal problem ~num:false) in
  let par = Adaptive.run ~config (Evaluator.of_nodal problem ~num:false) in
  Alcotest.(check int) "same passes" seq.Adaptive.passes par.Adaptive.passes;
  Alcotest.(check bool) "same coefficients, bit for bit" true
    (seq.Adaptive.coeffs = par.Adaptive.coeffs
    && seq.Adaptive.established = par.Adaptive.established)

let test_share_reuse_invariance () =
  (* The pipeline switches are pure cost controls.  Sharing the num/den
     evaluation memoises identical computations, so coefficients match bit
     for bit; pattern reuse changes the pivot order round-off, so it matches
     to far better than the sigma = 6 digits the algorithm certifies. *)
  let gen ~share ~reuse =
    Reference.generate ~share ~reuse Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output)
  in
  let base = gen ~share:false ~reuse:true in
  let shared = gen ~share:true ~reuse:true in
  Alcotest.(check bool) "share: num bit-identical" true
    (base.Reference.num.Adaptive.coeffs = shared.Reference.num.Adaptive.coeffs);
  Alcotest.(check bool) "share: den bit-identical" true
    (base.Reference.den.Adaptive.coeffs = shared.Reference.den.Adaptive.coeffs);
  let seed = gen ~share:false ~reuse:false in
  List.iter
    (fun (label, a, b) ->
      Alcotest.(check bool) (label ^ " matches seed path") true
        (Epoly.approx_equal ~rel:1e-5 a b))
    [
      ("num", Reference.numerator seed, Reference.numerator shared);
      ("den", Reference.denominator seed, Reference.denominator shared);
    ]

(* --- the pattern chain --- *)

let ua741_problem () =
  let module Ua741 = Symref_circuit.Ua741 in
  Nodal.make Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

let test_chain_ua741_learns () =
  (* One learned pattern per circuit, re-learned only where the threshold
     floor rejects it: the µA741 reference used to learn once per scale
     pair (9 times). *)
  let module Ua741 = Symref_circuit.Ua741 in
  let module Metrics = Symref_obs.Metrics in
  Test_mna.with_metrics @@ fun () ->
  let r =
    Reference.generate Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let misses = Metrics.value Metrics.pattern_misses in
  Alcotest.(check bool) (Printf.sprintf "at most 3 learns (%d)" misses) true (misses <= 3);
  Alcotest.(check int) "one symbolic analysis per learn" misses
    (Metrics.value Metrics.lu_symbolic);
  Alcotest.(check bool) "more scale pairs than learns" true
    (r.Reference.num.Adaptive.passes + r.Reference.den.Adaptive.passes > misses)

let test_chain_history_free () =
  (* A run restarts the chain at its anchor, so evaluations made before it
     on the same problem — here at far-tilted scale pairs, which re-learn
     the pattern — cannot change a bit of its coefficients. *)
  let run problem =
    let s = Evaluator.of_nodal_shared problem in
    (Adaptive.run s.Evaluator.snum, Adaptive.run s.Evaluator.sden)
  in
  let fresh_num, fresh_den = run (ua741_problem ()) in
  let used = ua741_problem () in
  let f0, g0 = Nodal.first_scales used in
  List.iter
    (fun (f, g) ->
      ignore (Nodal.eval_batch ~f ~g used [| Cx.j; Cx.make 0.6 0.8 |]);
      ignore (Nodal.eval ~f ~g used (Cx.make (-0.8) 0.6)))
    [ (f0 *. 1e5, g0 *. 1e-5); (f0 *. 1e-4, g0 *. 1e4); (f0 *. 3., g0) ];
  let num, den = run used in
  Alcotest.(check bool) "num bit-identical to a fresh problem" true
    (num.Adaptive.coeffs = fresh_num.Adaptive.coeffs);
  Alcotest.(check bool) "den bit-identical to a fresh problem" true
    (den.Adaptive.coeffs = fresh_den.Adaptive.coeffs);
  (* And a repeated run on the same problem is its own replay. *)
  let num', den' = run used in
  Alcotest.(check bool) "rerun bit-identical" true
    (num'.Adaptive.coeffs = num.Adaptive.coeffs && den'.Adaptive.coeffs = den.Adaptive.coeffs)

(* The one-digit-slack agreement rule of the benchmark's oracle check:
   every coefficient within [10^(1 - sigma)] relative, zero only against
   zero. *)
let agree_to_sigma (a : Reference.t) (b : Reference.t) =
  let rel = 10. ** float_of_int (1 - Adaptive.default_config.Adaptive.sigma) in
  let same x y =
    Array.length x = Array.length y && Array.for_all2 (Ef.approx_equal ~rel) x y
  in
  same a.Reference.num.Adaptive.coeffs b.Reference.num.Adaptive.coeffs
  && same a.Reference.den.Adaptive.coeffs b.Reference.den.Adaptive.coeffs

let test_chain_oracle_sweep () =
  (* Every shipped netlist and the benchmark circuits: the carried-pattern
     path agrees with the full-factor oracle ([reuse:false], unshared) to
     the sigma digits the algorithm certifies. *)
  let module Parser = Symref_spice.Parser in
  let module N = Symref_circuit.Netlist in
  let module Ua741 = Symref_circuit.Ua741 in
  let load name = Parser.parse_file (Filename.concat "../examples/netlists" name) in
  let differential c =
    (N.remove_element (N.remove_element c "v_vinp") "v_vinn", Nodal.V_diff ("inp", "inn"))
  in
  let v1 = Nodal.Vsrc_element "v1" in
  let cases =
    [
      ("crossover.cir", Symref_circuit.Transform.inductors_to_gyrators (load "crossover.cir"), v1, "w1");
      ("rc_filter.cir", load "rc_filter.cir", v1, "out");
      ("sallen_key.cir", load "sallen_key.cir", v1, "out");
      ("two_stage_bjt.cir", load "two_stage_bjt.cir", v1, "c2");
      (let c, i = differential (load "ua741.cir") in ("ua741.cir", c, i, "out"));
      (let c, i = differential (load "ua741_macro.cir") in ("ua741_macro.cir", c, i, "out"));
      ("ota", Ota.circuit, Nodal.V_diff (Ota.input_p, Ota.input_n), Ota.output);
      ("ua741", Ua741.circuit, Nodal.V_diff (Ua741.input_p, Ua741.input_n), Ua741.output);
    ]
    @ List.map
        (fun n ->
          (Printf.sprintf "rc-ladder-%d" n, Ladder.circuit n, Nodal.Vsrc_element "vin", Ladder.output_node))
        [ 8; 32; 64 ]
  in
  let names = Array.to_list (Sys.readdir "../examples/netlists") in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".cir" then
        Alcotest.(check bool) (f ^ " is in the sweep") true
          (List.exists (fun (n, _, _, _) -> n = f) cases))
    names;
  List.iter
    (fun (name, circuit, input, out) ->
      let output = Nodal.Out_node out in
      let chain = Reference.generate circuit ~input ~output in
      let oracle = Reference.generate ~reuse:false ~share:false circuit ~input ~output in
      Alcotest.(check bool) (name ^ " agrees with the full-factor oracle") true
        (agree_to_sigma chain oracle))
    cases

let suite =
  [
    ( "band",
      [
        Alcotest.test_case "detect" `Quick test_band_detect;
        Alcotest.test_case "floor" `Quick test_band_floor;
      ] );
    ( "scaling",
      [
        Alcotest.test_case "normalize roundtrip" `Quick test_scaling_roundtrip;
        Alcotest.test_case "tilt direction" `Quick test_scaling_tilt_direction;
        Alcotest.test_case "tilt window placement (eq 14)" `Quick
          test_scaling_tilt_window_placement;
        Alcotest.test_case "rebalance cap (1e18)" `Quick test_scaling_rebalance_cap;
        Alcotest.test_case "gap fill (eq 16)" `Quick test_gap_fill;
      ] );
    ( "interp",
      [
        Alcotest.test_case "exact recovery" `Quick test_interp_exact_recovery;
        Alcotest.test_case "conjugate symmetry" `Quick test_interp_conj_symmetry_halves_evals;
        Alcotest.test_case "deflation (eq 17)" `Quick test_interp_deflation;
        Alcotest.test_case "fft dispatch" `Quick test_interp_pow2_dispatch;
        Alcotest.test_case "noise injection" `Quick test_adaptive_with_noise;
      ] );
    ( "naive",
      [
        Alcotest.test_case "mild polynomial ok" `Quick test_naive_on_mild_poly;
        Alcotest.test_case "steep polynomial garbage (Table 1a)" `Quick
          test_naive_fails_on_steep_poly;
      ] );
    ( "fixed-scale",
      [
        Alcotest.test_case "recovers order 9 (Table 1b)" `Quick
          test_fixed_scale_recovers_band;
        Alcotest.test_case "partial band at order 40" `Quick test_fixed_scale_partial_band;
      ] );
    ( "adaptive",
      [
        Alcotest.test_case "moderate polynomial" `Quick test_adaptive_moderate;
        Alcotest.test_case "48th order, 7 dec/power" `Quick test_adaptive_large;
        Alcotest.test_case "extreme spread" `Quick test_adaptive_extreme_spread;
        Alcotest.test_case "without reduction" `Quick test_adaptive_without_reduction;
        Alcotest.test_case "over-estimated order" `Quick test_adaptive_overestimated_order;
        Alcotest.test_case "coefficient ratios" `Quick test_adaptive_ratios;
      ] );
    ( "reference",
      [
        Alcotest.test_case "rc ladders vs exact oracle" `Quick test_ladder_exact_match;
        Alcotest.test_case "ota end-to-end" `Quick test_ota_reference;
        Alcotest.test_case "dc gain: signed divergence and 0/0" `Quick
          test_dc_gain_signed_divergence;
        Alcotest.test_case "gm-c end-to-end" `Quick test_gmc_reference;
        Alcotest.test_case "ua741 end-to-end (Tables 2-3, Fig 2)" `Quick
          test_ua741_reference;
        Alcotest.test_case "tuning robustness" `Quick test_tuning_robustness;
      ] );
    ( "pipeline",
      [
        Alcotest.test_case "domains bit-identical (ua741 den)" `Quick
          test_domains_bit_identical;
        Alcotest.test_case "share/reuse invariance" `Quick
          test_share_reuse_invariance;
        Alcotest.test_case "chain: ua741 learns at most 3 patterns" `Quick
          test_chain_ua741_learns;
        Alcotest.test_case "chain: runs are history-free" `Quick test_chain_history_free;
        Alcotest.test_case "chain: full-factor oracle sweep" `Quick test_chain_oracle_sweep;
      ] );
  ]
