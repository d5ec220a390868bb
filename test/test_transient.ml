(* Transient simulation against closed forms and the modal step responses
   from the reference coefficients — two fully independent time-domain
   routes. *)

module Transient = Symref_mna.Transient
module Nodal = Symref_mna.Nodal
module N = Symref_circuit.Netlist
module Ladder = Symref_circuit.Rc_ladder
module Biquad = Symref_circuit.Biquad
module Reference = Symref_core.Reference
module Rational = Symref_core.Rational

let check_rel msg want got tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.6g vs %.6g" msg got want)
    true
    (Float.abs (got -. want) <= (tol *. Float.abs want) +. 1e-9)

let test_rc_step_closed_form () =
  let tau = 1e-9 in
  let r =
    Transient.simulate (Ladder.circuit 1) ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node Ladder.output_node)
      ~waveform:(Transient.step ()) ~t_stop:(5. *. tau) ~steps:500
  in
  (* The backward-Euler start-up step carries an O(h) local error that the
     trapezoidal steps then damp; check from a few steps in. *)
  Array.iteri
    (fun i t ->
      if i > 10 then
        check_rel
          (Printf.sprintf "1 - e^(-t/tau) at %g" t)
          (1. -. Float.exp (-.t /. tau))
          r.Transient.output.(i) 2e-3)
    r.Transient.times

let test_rc_sine_steady_state () =
  (* At the corner frequency the steady-state amplitude is 1/sqrt 2 and the
     phase lag 45 degrees. *)
  let tau = 1e-9 in
  let fc = 1. /. (2. *. Float.pi *. tau) in
  let cycles = 12. in
  let r =
    Transient.simulate (Ladder.circuit 1) ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node Ladder.output_node)
      ~waveform:(Transient.sine ~freq_hz:fc ())
      ~t_stop:(cycles /. fc) ~steps:6000
  in
  (* Amplitude over the last two cycles. *)
  let n = Array.length r.Transient.output in
  let tail = Array.sub r.Transient.output (n - 1000) 1000 in
  let peak = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0. tail in
  check_rel "steady-state amplitude" (1. /. Float.sqrt 2.) peak 5e-3

let test_matches_modal_step () =
  (* Trapezoidal integration vs the partial-fraction step response from the
     adaptive references, for a Q = 1.3 biquad under a voltage drive and an
     RC net under a current drive (the unit current scales with the step). *)
  let check c ~input ~output ~t_stop ~steps ~settled =
    let sim =
      Transient.simulate c ~input ~output ~waveform:(Transient.step ()) ~t_stop ~steps
    in
    let reference = Reference.generate c ~input ~output in
    let modal =
      Rational.step_response (Rational.of_reference reference) ~times:sim.Transient.times
    in
    Array.iteri
      (fun i t ->
        if t > settled then
          check_rel (Printf.sprintf "modal = trapezoidal at %g" t) modal.(i)
            sim.Transient.output.(i) 0.01)
      sim.Transient.times
  in
  let d = { Biquad.f0_hz = 1e6; q = 1.3; gm = 40e-6 } in
  check (Biquad.cascade [ d ]) ~input:(Nodal.Vsrc_element "vin")
    ~output:(Nodal.Out_node "out") ~t_stop:3e-6 ~steps:3000 ~settled:2e-7;
  let b = N.Builder.create ~title:"current-driven rc" () in
  N.Builder.resistor b "r1" ~a:"in" ~b:"0" 1e3;
  N.Builder.capacitor b "c1" ~a:"in" ~b:"0" 1e-12;
  N.Builder.resistor b "r2" ~a:"in" ~b:"out" 1e3;
  N.Builder.capacitor b "c2" ~a:"out" ~b:"0" 1e-12;
  check (N.Builder.finish b) ~input:(Nodal.I_single "in")
    ~output:(Nodal.Out_node "out") ~t_stop:1e-8 ~steps:2000 ~settled:1e-9

let test_validation () =
  Alcotest.(check bool) "bad steps" true
    (try
       ignore
         (Transient.simulate (Ladder.circuit 1) ~input:(Nodal.Vsrc_element "vin")
            ~output:(Nodal.Out_node Ladder.output_node)
            ~waveform:(Transient.step ()) ~t_stop:1e-9 ~steps:0);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "transient",
      [
        Alcotest.test_case "rc step closed form" `Quick test_rc_step_closed_form;
        Alcotest.test_case "rc sine steady state" `Quick test_rc_sine_steady_state;
        Alcotest.test_case "modal vs trapezoidal" `Quick test_matches_modal_step;
        Alcotest.test_case "validation" `Quick test_validation;
      ] );
  ]
