(* ref-mid: one in-process caller runs [Parser.parse_string] then
   [Reference.generate] on a seeded stream of mid-size circuits (random nets
   of 24..64 nodes, every eighth the µA741).  No serve code is on the path;
   symbolic analysis dominates, so this is where a per-circuit symbolic
   cache must show. *)

module Parser = Symref_spice.Parser
module Reference = Symref_core.Reference

(* Distinct circuits per run; the op stream cycles through them. *)
let pool_size = 192

(* Pool entries re-checked against the full-factor path after the window. *)
let check_sample = 12

let op (c : Inputs.circuit) =
  let circuit = Parser.parse_string c.Inputs.text in
  Reference.generate circuit ~input:c.Inputs.input ~output:c.Inputs.output

let setup ~seed =
  let pool = Array.init pool_size (Inputs.mid_circuit ~seed) in
  (* Warm-up on the µA741, the one circuit every seed shares, so set-up time
     does not depend on the seed: the first ops pay lazy initialisation. *)
  for _ = 1 to 4 do
    ignore (op pool.(7))
  done;
  pool

(* Seeded sample of distinct pool indices below [n]; always holds index 7,
   the first µA741. *)
let sample ~seed ~n k =
  let chosen = Hashtbl.create k in
  if n > 7 then Hashtbl.replace chosen 7 ();
  let j = ref 0 in
  while Hashtbl.length chosen < Int.min k n do
    Hashtbl.replace chosen (Inputs.mix seed 6 !j mod n) ();
    incr j
  done;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) chosen [])

(* Shared verdicts for both modes: health of every distinct reference the
   window produced (weighted by how often it ran), and the full-factor
   oracle on a seeded sample. *)
let verdicts ~seed pool (first : Reference.t option array) (visits : int array) =
  let notes = ref [] and wrong = ref 0 and unhealthy = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Some r when not (Reference.health r).Reference.healthy -> unhealthy := !unhealthy + visits.(i)
      | _ -> ())
    first;
  (* The window visits the pool in order, so the entries it reached are a
     prefix; the sample is drawn from it (failed entries have no result). *)
  let reached = Array.fold_left (fun acc r -> if Option.is_none r then acc else acc + 1) 0 first in
  List.iter
    (fun i ->
      match first.(i) with
      | None -> ()
      | Some r ->
          let c = pool.(i) in
          let circuit = Parser.parse_string c.Inputs.text in
          let oracle =
            Reference.generate ~reuse:false ~share:false circuit ~input:c.Inputs.input
              ~output:c.Inputs.output
          in
          if not (Refpath.agree ~sigma:Symref_core.Adaptive.default_config.sigma r oracle) then begin
            wrong := !wrong + visits.(i);
            notes :=
              (Printf.sprintf "mismatch.%d" i, c.Inputs.name ^ " differs from the full-factor path")
              :: !notes
          end)
    (sample ~seed ~n:reached check_sample);
  (!wrong, !unhealthy, List.rev !notes)

let run ~seed ~seconds ~trace =
  (* Set-up repeats, five before the window and four after it, so that they
     sample more than one spell of the shared host: setup_s is their
     median. *)
  let time_setup () =
    let t0 = Clock.now () in
    let pool = setup ~seed in
    (Clock.now () -. t0, pool)
  in
  let before = Array.init 5 (fun _ -> time_setup ()) in
  let pool = snd before.(0) in
  let first = Array.make pool_size None and visits = Array.make pool_size 0 in
  let lat = ref [] and ops = ref 0 and failed = ref 0 and notes = ref [] in
  let remember i r =
    let k = i mod pool_size in
    visits.(k) <- visits.(k) + 1;
    if Option.is_none first.(k) then first.(k) <- Some r
  in
  let fail i e =
    incr failed;
    notes := (Printf.sprintf "failed.%d" i, Printexc.to_string e) :: !notes
  in
  if not trace then begin
    let t_start = Clock.now () in
    let deadline = t_start +. seconds in
    while Clock.now () < deadline do
      let i = !ops in
      let c = pool.(i mod pool_size) in
      let t0 = Clock.now () in
      (match op c with
      | r ->
          let t1 = Clock.now () in
          lat := (t1 -. t_start, t1 -. t0) :: !lat;
          remember i r
      | exception e -> fail i e);
      incr ops
    done;
    let window = Clock.now () -. t_start in
    let wrong, unhealthy, vnotes = verdicts ~seed pool first visits in
    let after = Array.init 4 (fun _ -> fst (time_setup ())) in
    let setup_s = Report.median (Array.append (Array.map fst before) after) in
    let failed = !failed + wrong in
    {
      Report.correct = failed = 0;
      attempted = !ops;
      failed;
      metrics =
        Report.end_to_end ~setup_s ~ops:!ops ~window_s:window ~samples:(Array.of_list !lat)
          ~failed ~unhealthy ~rss_mb:(Report.peak_rss_mb "self");
      notes = List.rev !notes @ vnotes;
    }
  end
  else begin
    (* Traced run: every circuit runs untraced, then through the composed
       path with spans on; the pairs give the tracing overhead without
       drift, and the traced result must be bit-identical to the untraced
       one. *)
    let sp = Spans.create () in
    let ids = Refpath.ids sp in
    let op_id = Spans.intern sp "op" and parse_id = Spans.intern sp "spice.parse" in
    let plain = ref [] and traced = ref [] in
    let symbolic = ref 0 and evals = ref 0 and passes = ref 0 and diverged = ref 0 in
    let deadline = Clock.now () +. seconds in
    while Clock.now () < deadline do
      let i = !ops in
      let c = pool.(i mod pool_size) in
      incr ops;
      let t0 = Clock.now () in
      match op c with
      | exception e -> fail i e
      | r -> (
          plain := (Clock.now () -. t0) :: !plain;
          remember i r;
          let t1 = Clock.now () in
          match
            Spans.span sp op_id ~req:i (fun () ->
                let circuit = Spans.span sp parse_id ~req:i (fun () -> Parser.parse_string c.Inputs.text) in
                Refpath.generate sp ids ~req:i circuit ~input:c.Inputs.input ~output:c.Inputs.output)
          with
          | exception e -> fail i e
          | t, learned ->
              traced := (Clock.now () -. t1) :: !traced;
              symbolic := !symbolic + learned;
              evals := !evals + Reference.total_evaluations t;
              passes := !passes + Refpath.passes t;
              if not (Refpath.identical r t) then incr diverged)
    done;
    let wrong, unhealthy, vnotes = verdicts ~seed pool first visits in
    (* Counter identity on the first two random nets and the first µA741. *)
    let counter_notes =
      List.filter_map
        (fun i ->
          let c = pool.(i) in
          Option.map
            (fun why -> (Printf.sprintf "identity.%d" i, c.Inputs.name ^ ": " ^ why))
            (Refpath.counter_identity (Parser.parse_string c.Inputs.text) ~input:c.Inputs.input
               ~output:c.Inputs.output))
        [ 0; 1; 7 ]
    in
    let traced_ops = List.length !traced in
    let per_op x = if traced_ops = 0 then 0. else x /. float_of_int traced_ops in
    let tot = Spans.totals sp in
    let self_ms name = let s, _, _ = tot name in per_op (s *. 1000.) in
    let layers =
      [ "spice.parse"; "mna.stamp"; "linalg.symbolic"; "linalg.replay_batch"; "linalg.replay_point" ]
    in
    let adaptive_self = self_ms "core.adaptive" in
    let layer_sum = List.fold_left (fun acc l -> acc +. self_ms l) adaptive_self layers in
    let p50_traced = Report.median (Array.of_list !traced) *. 1000.
    and p50_plain = Report.median (Array.of_list !plain) *. 1000. in
    let failed = !failed + wrong + !diverged in
    let identity_ok = !diverged = 0 && counter_notes = [] in
    let metrics =
      Layers.metrics
        [
          ("spice.parse_ms", self_ms "spice.parse");
          ("mna.stamp_ms", self_ms "mna.stamp");
          ("linalg.symbolic_ms", self_ms "linalg.symbolic");
          ("linalg.symbolic_count", per_op (float_of_int !symbolic));
          ("linalg.replay_batch_ms", self_ms "linalg.replay_batch");
          ("linalg.replay_point_ms", self_ms "linalg.replay_point");
          ("linalg.lu_evals", per_op (float_of_int !evals));
          ("core.adaptive_self_ms", adaptive_self);
          ("core.passes", per_op (float_of_int !passes));
          ("error_ratio", Report.ratio failed !ops);
          ("unhealthy_ratio", Report.ratio unhealthy !ops);
          ("obs.trace_overhead_pct", 100. *. ((p50_traced /. p50_plain) -. 1.));
          ("trace.coverage_pct", 100. *. layer_sum /. p50_traced);
        ]
    in
    {
      Report.correct = failed = 0 && identity_ok;
      attempted = !ops;
      failed;
      metrics;
      notes =
        List.rev !notes @ vnotes @ counter_notes
        @ (if !diverged > 0 then [ ("identity.traced", Printf.sprintf "%d traced ops differ" !diverged) ] else []);
    }
  end
