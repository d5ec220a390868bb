(* The reference path composed by hand from the library's public calls, so
   each layer can be timed from outside: [Nodal.make], then
   [Evaluator.of_nodal_shared], then [Adaptive.run] on the numerator and the
   denominator through wrapped [eval]/[prefetch] closures.  It must compute
   exactly what [Reference.generate] computes; [identical] and
   [counter_identity] check that. *)

module Ef = Symref_numeric.Extfloat
module Epoly = Symref_poly.Epoly
module Nodal = Symref_mna.Nodal
module Evaluator = Symref_core.Evaluator
module Adaptive = Symref_core.Adaptive
module Reference = Symref_core.Reference
module Metrics = Symref_obs.Metrics
module Ladder = Symref_circuit.Rc_ladder

type ids = { stamp : int; symbolic : int; batch : int; point : int; adaptive : int }

let ids sp =
  {
    stamp = Spans.intern sp "mna.stamp";
    symbolic = Spans.intern sp "linalg.symbolic";
    batch = Spans.intern sp "linalg.replay_batch";
    point = Spans.intern sp "linalg.replay_point";
    adaptive = Spans.intern sp "core.adaptive";
  }

(* Returns the reference and the number of scale pairs whose symbolic
   analysis was learned.

   The shared evaluator memoises on (f, g, re, im) and calls into [Nodal]
   only for points it has not seen; [Nodal] keeps one learned pattern,
   keyed on the exact (f, g), and re-learns it whenever a call arrives with
   another pair.  [seen] mirrors the memo and [last] the pattern slot, so
   the explicit [Nodal.elimination_program] below runs exactly when
   [Nodal] would learn the pattern itself: the work is the same, only
   moved into its own span. *)
let generate sp ids ~req circuit ~input ~output =
  let config = Adaptive.default_config in
  let problem = Spans.span sp ids.stamp ~req (fun () -> Nodal.make circuit ~input ~output) in
  let shared = Evaluator.of_nodal_shared problem in
  let seen = Hashtbl.create 1024 in
  let last = ref None and learned = ref 0 in
  let before_nodal ~f ~g =
    match !last with
    | Some (f', g') when f' = f && g' = g -> ()
    | _ ->
        last := Some (f, g);
        incr learned;
        Spans.span sp ids.symbolic ~req (fun () ->
            ignore (Nodal.elimination_program ~f ~g problem))
  in
  let fresh ~f ~g (s : Complex.t) =
    let key = (f, g, s.Complex.re, s.Complex.im) in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  let wrap (ev : Evaluator.t) =
    {
      ev with
      Evaluator.eval =
        (fun ~f ~g s ->
          Spans.span sp ids.point ~req (fun () ->
              if fresh ~f ~g s then before_nodal ~f ~g;
              ev.Evaluator.eval ~f ~g s));
      prefetch =
        Option.map
          (fun pf ~f ~g points ->
            Spans.span sp ids.batch ~req (fun () ->
                let any = Array.fold_left (fun acc s -> fresh ~f ~g s || acc) false points in
                if any then before_nodal ~f ~g;
                pf ~f ~g points))
          ev.Evaluator.prefetch;
    }
  in
  let num = Spans.span sp ids.adaptive ~req (fun () -> Adaptive.run ~config (wrap shared.Evaluator.snum)) in
  let den = Spans.span sp ids.adaptive ~req (fun () -> Adaptive.run ~config (wrap shared.Evaluator.sden)) in
  ({ Reference.num; den; input; output; config; problem }, !learned)

let passes (r : Reference.t) = r.Reference.num.Adaptive.passes + r.Reference.den.Adaptive.passes

let coeffs (r : Reference.t) = (r.Reference.num.Adaptive.coeffs, r.Reference.den.Adaptive.coeffs)

let arrays_match eq a b = Array.length a = Array.length b && Array.for_all2 eq a b

(* Bit-identical coefficients. *)
let identical a b =
  let an, ad = coeffs a and bn, bd = coeffs b in
  arrays_match Ef.equal an bn && arrays_match Ef.equal ad bd

(* Every coefficient agrees to [sigma] significant digits (one digit of
   slack: relative difference at most 10^(1 - sigma)); zero only against
   zero. *)
let agree ~sigma a b =
  let rel = 10. ** float_of_int (1 - sigma) in
  let an, ad = coeffs a and bn, bd = coeffs b in
  arrays_match (Ef.approx_equal ~rel) an bn && arrays_match (Ef.approx_equal ~rel) ad bd

(* [den] (any normalisation) against the ladder's exact denominator, both
   scaled to a unit constant coefficient. *)
let ladder_agrees ~rel (r, c, sections) (den : Ef.t array) =
  let exact = Epoly.coeffs (Ladder.exact_denominator ~r ~c sections) in
  Array.length den >= Array.length exact
  && (not (Ef.is_zero den.(0)))
  && Array.for_all Ef.is_zero (Array.sub den (Array.length exact) (Array.length den - Array.length exact))
  && Array.for_all2
       (fun d e -> Ef.approx_equal ~rel (Ef.div d den.(0)) e)
       (Array.sub den 0 (Array.length exact))
       exact

(* Counters the identity check compares: pattern learning and every LU
   family counter. *)
let identity_counters () =
  List.filter
    (fun (name, _) ->
      name = "nodal.pattern_miss" || (String.length name > 3 && String.sub name 0 3 = "lu."))
    (Metrics.all ())

(* Runs [Reference.generate] and the composed path on one circuit with the
   program's counters on; [None] when coefficients and counters match, else
   the reason. *)
let counter_identity circuit ~input ~output =
  let was = Metrics.enabled () in
  Metrics.enable ();
  Metrics.reset ();
  let a = Reference.generate circuit ~input ~output in
  let ca = identity_counters () in
  Metrics.reset ();
  let sp = Spans.create () in
  let b, _ = generate sp (ids sp) ~req:0 circuit ~input ~output in
  let cb = identity_counters () in
  Metrics.reset ();
  if not was then Metrics.disable ();
  if not (identical a b) then Some "coefficients differ from Reference.generate"
  else if ca <> cb then
    Some
      (String.concat ", "
         (List.filter_map
            (fun ((n, x), (_, y)) -> if x <> y then Some (Printf.sprintf "%s %d vs %d" n x y) else None)
            (List.combine ca cb)))
  else None
