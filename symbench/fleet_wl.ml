(* fleet-hit and fleet-miss: `symref fleet --size 2` driven closed-loop over
   two connections to its front.

   fleet-hit: 64 mid-size netlists, zipf-drawn, all computed during set-up,
   so every timed job is an LRU hit and no reference is computed: time goes
   to decode, SPICE parse, canonicalisation, the cache key, payload
   re-encode and the router hop.

   fleet-miss: every job is a netlist never sent before (random nets of
   64..128 nodes, RC ladders of 48..128 sections) on a fresh disk cache:
   numeric replay, health verification and cache writes dominate. *)

module Protocol = Symref_serve.Protocol
module Service = Symref_serve.Service
module Cache = Symref_serve.Cache
module Disk_cache = Symref_serve.Disk_cache
module Router = Symref_serve.Router
module Transport = Symref_serve.Transport
module Json = Symref_obs.Json
module Parser = Symref_spice.Parser
module Writer = Symref_spice.Writer
module Transform = Symref_circuit.Transform
module Reference = Symref_core.Reference
module Ef = Symref_numeric.Extfloat

type kind = Hit | Miss

let hit_keys = 64

(* Miss oracle sample: jobs re-run in-process after the window. *)
let miss_sample = 8

let connections = 2

type workload = {
  kind : kind;
  seed : int;
  table : float array;  (* zipf ranks, fleet-hit *)
  keys : Inputs.circuit array;  (* fleet-hit key set *)
  key_lines : string array;  (* their request lines, built once *)
}

(* fleet-hit op [i]'s key. *)
let key_of w i = Inputs.zipf_draw w.table (Inputs.uniform w.seed 7 i)

let circuit_of w i =
  match w.kind with Hit -> w.keys.(key_of w i) | Miss -> Inputs.miss_circuit ~seed:w.seed i

let job_of w i =
  match w.kind with
  | Hit ->
      let k = key_of w i in
      Inputs.job ~id:(Printf.sprintf "k%d" k) w.keys.(k)
  | Miss -> Inputs.job ~id:(Printf.sprintf "m%d" i) (Inputs.miss_circuit ~seed:w.seed i)

let line_of w i =
  match w.kind with Hit -> w.key_lines.(key_of w i) | Miss -> Inputs.request_line (job_of w i)

(* Warm-up ops come from their own index range, so fleet-miss warm-up jobs
   are never timed jobs. *)
let warm_base = 1 lsl 40

(* The reply's result object, byte for byte as the server wrote it. *)
let body_of_line line =
  let needle = ",\"result\":" in
  let n = String.length needle and l = String.length line in
  let rec find i = if i + n > l then None else if String.sub line i n = needle then Some i else find (i + 1) in
  match find 0 with
  | Some i when l > 0 && line.[l - 1] = '}' -> Some (String.sub line (i + n) (l - i - n - 1))
  | _ -> None

(* --- closed loop ---------------------------------------------------------- *)

type loop = {
  lat : (float * float) array;
      (** every completed op: (completion time from the window's start,
          latency), seconds *)
  ops : int;  (** attempted *)
  io_failed : int;
  window : float;
}

(* [connections] threads, each a closed loop on its own connection to
   [front]: take the next op index, send its line, wait for the reply, hand
   it to [record ~thread] (outside the timed exchange). *)
let closed_loop ~front ~seconds ~first ~line_of ~record =
  let next = Atomic.make first in
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let per = Array.init connections (fun _ -> (ref [], ref 0, ref 0)) in
  let client thread =
    let lat, ops, failed = per.(thread) in
    let conn = ref (try Some (Fleet.connect front) with _ -> None) in
    while Clock.now () < deadline do
      let i = Atomic.fetch_and_add next 1 in
      let line = line_of i in
      incr ops;
      match !conn with
      | None ->
          incr failed;
          Unix.sleepf 0.01;
          conn := (try Some (Fleet.connect front) with _ -> None)
      | Some c -> (
          let t0 = Clock.now () in
          match Fleet.exchange c line with
          | reply ->
              let t1 = Clock.now () in
              lat := (t1 -. t_start, t1 -. t0) :: !lat;
              record ~thread i reply
          | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
              incr failed;
              Fleet.close c;
              conn := (try Some (Fleet.connect front) with _ -> None))
    done;
    Option.iter Fleet.close !conn
  in
  let threads = Array.init connections (fun k -> Thread.create client k) in
  Array.iter Thread.join threads;
  let window = Clock.now () -. t_start in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 per in
  {
    lat = Array.concat (Array.to_list (Array.map (fun (l, _, _) -> Array.of_list !l) per));
    ops = sum (fun (_, o, _) -> !o);
    io_failed = sum (fun (_, _, f) -> !f);
    window;
  }

(* Replies kept for checking.  fleet-hit keeps, per thread, the first reply
   of each key with a count of the later replies byte-identical to it, and
   every reply that differs; fleet-miss keeps every reply. *)
type book = {
  firsts : (int, int * string * int ref) Hashtbl.t array;  (* key -> op, line, copies *)
  kept : (int * string) list ref array;
}

let new_book () =
  { firsts = Array.init connections (fun _ -> Hashtbl.create 64); kept = Array.init connections (fun _ -> ref []) }

(* --- checks --------------------------------------------------------------- *)

(* [wrong]: failed status, or an answer that differs from the program's
   in-process answer, or a wrong answer the program marked healthy.
   [inaccurate]: an answer off the exact oracle that the program itself
   marked unhealthy.  The op completed and its reply says it is not
   verified, so it counts as an error in [ok_ratio] and [error_ratio] (and
   as unhealthy) but not as a failed op, and it does not make the run
   incorrect. *)
type verdict = {
  wrong : int;
  inaccurate : int;
  unhealthy : int;
  shed : int;
  notes : (string * string) list;
}

let no_verdict = { wrong = 0; inaccurate = 0; unhealthy = 0; shed = 0; notes = [] }

let add_verdict a b =
  {
    wrong = a.wrong + b.wrong;
    inaccurate = a.inaccurate + b.inaccurate;
    unhealthy = a.unhealthy + b.unhealthy;
    shed = a.shed + b.shed;
    notes = a.notes @ b.notes;
  }

let healthy_body body = Fleet.member_path [ "health"; "healthy" ] body = Some (Json.Bool true)

(* Extended-float coefficient strings of one side of a payload. *)
let coeff_strings side body =
  match Json.member side body with
  | Some a -> List.map Json.to_str (Json.to_list a)
  | None -> []

(* "m.ddddde[+-]x" with any exponent, extended range included. *)
let ef_of_string s =
  match String.index_opt s 'e' with
  | None -> Ef.of_float (float_of_string s)
  | Some i ->
      Ef.of_decimal
        (float_of_string (String.sub s 0 i))
        (int_of_string (String.sub s (i + 1) (String.length s - i - 1)))

let oracle_service () =
  Service.create ~config:{ Service.default_config with Service.workers = 1 } ()

(* The in-process answer to [job]: the body bytes a worker must send. *)
let oracle_body svc job =
  let r = Service.run_job svc job in
  if r.Protocol.status = Protocol.Ok then Some (Json.to_string r.Protocol.body) else None

(* Parse one reply; classify it as shed, wrong (non-ok) or unhealthy. *)
let classify (i, line) =
  match Protocol.reply_of_json (Json.parse line) with
  | exception _ -> `Wrong (Printf.sprintf "op %d: unparseable reply" i)
  | r when r.Protocol.status = Protocol.Overloaded -> `Shed
  | r when r.Protocol.status <> Protocol.Ok ->
      `Wrong
        (Printf.sprintf "op %d: %s %s" i (Protocol.status_to_string r.Protocol.status)
           (Option.value (Protocol.error_message r) ~default:""))
  | r -> `Ok r.Protocol.body

let record w book ~thread i line =
  let kept = book.kept.(thread) in
  match w.kind with
  | Miss -> kept := (i, line) :: !kept
  | Hit -> (
      let firsts = book.firsts.(thread) in
      let k = key_of w i in
      match Hashtbl.find_opt firsts k with
      | None -> Hashtbl.replace firsts k (i, line, ref 1)
      | Some (_, repr, n) -> if String.equal repr line then incr n else kept := (i, line) :: !kept)

(* fleet-hit: every reply of one key must carry the same bytes; one reply
   per key is then parsed and its body compared with an in-process
   [Service.run_job] of the same job. *)
let verdict_hit w book =
  let groups = Hashtbl.create hit_keys and odd = ref [] in
  Array.iter
    (fun firsts ->
      Hashtbl.iter
        (fun k (i, line, n) ->
          match Hashtbl.find_opt groups k with
          | None -> Hashtbl.replace groups k (i, line, ref !n)
          | Some (_, repr, total) -> if String.equal repr line then total := !total + !n else odd := (i, line, !n) :: !odd)
        firsts)
    book.firsts;
  Array.iter (fun kept -> List.iter (fun (i, line) -> odd := (i, line, 1) :: !odd) !kept) book.kept;
  let svc = oracle_service () in
  let v = ref no_verdict in
  Hashtbl.iter
    (fun k (i, repr, n) ->
      let name = w.keys.(k).Inputs.name in
      match classify (i, repr) with
      | `Shed -> v := add_verdict !v { no_verdict with shed = !n }
      | `Wrong why -> v := add_verdict !v { no_verdict with wrong = !n; notes = [ (Printf.sprintf "key.%d" k, why) ] }
      | `Ok body ->
          let expected = oracle_body svc (job_of w i) in
          if expected = None || expected <> body_of_line repr then
            v :=
              add_verdict !v
                { no_verdict with wrong = !n; notes = [ (Printf.sprintf "key.%d" k, name ^ ": body differs from in-process run_job") ] }
          else if not (healthy_body body) then v := add_verdict !v { no_verdict with unhealthy = !n })
    groups;
  List.iter
    (fun (j, line, n) ->
      match classify (j, line) with
      | `Shed -> v := add_verdict !v { no_verdict with shed = n }
      | `Wrong why -> v := add_verdict !v { no_verdict with wrong = n; notes = [ (Printf.sprintf "op.%d" j, why) ] }
      | `Ok _ ->
          v :=
            add_verdict !v
              { no_verdict with
                wrong = n;
                notes = [ (Printf.sprintf "op.%d" j, (circuit_of w j).Inputs.name ^ ": bytes differ from other replies of its key") ] })
    !odd;
  Service.shutdown svc;
  !v

(* fleet-miss: every reply is parsed; ladder denominators are checked
   against the exact recurrence; a seeded sample of fixed size is compared
   byte for byte with an in-process [Service.run_job]. *)
let verdict_miss w (replies : (int * string) list) =
  let sigma = Symref_core.Adaptive.default_config.Symref_core.Adaptive.sigma in
  (* Wire values are rounded to sigma digits, and normalising divides two of
     them: one more digit of slack than the in-process comparison. *)
  let rel = 2. *. (10. ** float_of_int (1 - sigma)) in
  let v = ref no_verdict in
  let ok = ref [] in
  List.iter
    (fun (i, line) ->
      let c = Inputs.miss_circuit ~seed:w.seed i in
      match classify (i, line) with
      | `Shed -> v := add_verdict !v { no_verdict with shed = 1 }
      | `Wrong why -> v := add_verdict !v { no_verdict with wrong = 1; notes = [ (Printf.sprintf "op.%d" i, why) ] }
      | `Ok body ->
          ok := (i, line) :: !ok;
          let bad_ladder =
            match c.Inputs.ladder with
            | None -> false
            | Some l -> (
                match List.map ef_of_string (coeff_strings "den" body) with
                | den -> not (Refpath.ladder_agrees ~rel l (Array.of_list den))
                | exception _ -> true)
          in
          let healthy = healthy_body body in
          let unhealthy = if healthy then 0 else 1 in
          if bad_ladder then
            v :=
              add_verdict !v
                {
                  no_verdict with
                  wrong = (if healthy then 1 else 0);
                  inaccurate = unhealthy;
                  unhealthy;
                  notes =
                    [
                      ( Printf.sprintf "op.%d" i,
                        Printf.sprintf "%s: denominator differs from the exact ladder recurrence (reply healthy=%b)"
                          c.Inputs.name healthy );
                    ];
                }
          else v := add_verdict !v { no_verdict with unhealthy })
    replies;
  let ok = Array.of_list (List.sort compare !ok) in
  let n = Array.length ok in
  if n > 0 then begin
    let svc = oracle_service () in
    let picked = Hashtbl.create miss_sample in
    let j = ref 0 in
    while Hashtbl.length picked < Int.min miss_sample n do
      Hashtbl.replace picked (Inputs.mix w.seed 8 !j mod n) ();
      incr j
    done;
    Hashtbl.iter
      (fun p () ->
        let i, line = ok.(p) in
        if oracle_body svc (job_of w i) <> body_of_line line then
          v :=
            add_verdict !v
              { no_verdict with wrong = 1; notes = [ (Printf.sprintf "op.%d" i, (circuit_of w i).Inputs.name ^ ": body differs from in-process run_job") ] })
      picked;
    Service.shutdown svc
  end;
  !v

let verdict w book =
  match w.kind with
  | Hit -> verdict_hit w book
  | Miss -> verdict_miss w (List.concat_map (fun k -> !k) (Array.to_list book.kept))

(* --- set-up --------------------------------------------------------------- *)

(* Start a fleet and warm it: fleet-hit computes every key once (then hits
   each once more, so the window starts on a warm hit path); fleet-miss
   sends a few jobs that are never timed. *)
let setup w ~stats =
  let fleet = Fleet.start ~stats in
  let c = Fleet.connect fleet.Fleet.front in
  (match w.kind with
  | Hit ->
      for _ = 1 to 2 do
        Array.iter (fun line -> ignore (Fleet.exchange c line)) w.key_lines
      done
  | Miss ->
      for i = 0 to 3 do
        ignore (Fleet.exchange c (Inputs.request_line (job_of w (warm_base + i))))
      done);
  Fleet.close c;
  fleet

(* A run is invalid, not slow, when a worker restarted or a breaker left
   the closed state (failover); both are findings, reported as notes. *)
let validity ~views (outcome : Fleet.outcome) =
  let counter n = Option.value (List.assoc_opt n outcome.Fleet.counters) ~default:0 in
  List.concat
    [
      (if outcome.Fleet.restarts > 0 then [ ("invalid.restarts", string_of_int outcome.Fleet.restarts) ] else []);
      (if counter "fleet.restarts" > 0 then [ ("invalid.fleet.restarts", string_of_int (counter "fleet.restarts")) ] else []);
      (if counter "router.failovers" > 0 then [ ("invalid.router.failovers", string_of_int (counter "router.failovers")) ] else []);
      (if List.exists (fun (_, _, healthy) -> not healthy) views then [ ("invalid.breakers", "a worker breaker left the closed state") ] else []);
    ]

let make kind ~seed =
  let keys = match kind with Hit -> Array.init hit_keys (Inputs.hit_key ~seed) | Miss -> [||] in
  {
    kind;
    seed;
    table = Inputs.zipf_table hit_keys;
    keys;
    key_lines = Array.mapi (fun k c -> Inputs.request_line (Inputs.job ~id:(Printf.sprintf "k%d" k) c)) keys;
  }

(* --- timed run ------------------------------------------------------------ *)

let timed w ~seconds =
  (* Set-up repeats, a fresh fleet each, some before the window (the last of
     them is the fleet measured) and some after it, so that they sample more
     than one spell of the shared host: setup_s is their median. *)
  let before, after = match w.kind with Hit -> (2, 1) | Miss -> (4, 3) in
  let time_setup () =
    let t0 = Clock.now () in
    let f = setup w ~stats:false in
    (Clock.now () -. t0, f)
  in
  let discarded n =
    Array.init n (fun _ ->
        let dt, f = time_setup () in
        ignore (Fleet.stop f);
        dt)
  in
  let early = discarded (before - 1) in
  let dt, fleet = time_setup () in
  let book = new_book () in
  let loop = closed_loop ~front:fleet.Fleet.front ~seconds ~first:0 ~line_of:(line_of w) ~record:(record w book) in
  let views = Fleet.worker_views fleet in
  let rss = Fleet.peak_rss_mb fleet in
  let outcome = Fleet.stop fleet in
  let v = verdict w book in
  let invalid = validity ~views outcome in
  let setup_s = Report.median (Array.concat [ early; [| dt |]; discarded after ]) in
  let failed = loop.io_failed + v.wrong + v.shed in
  {
    Report.correct = failed = 0 && invalid = [];
    attempted = loop.ops;
    failed;
    metrics =
      Report.end_to_end ~setup_s ~ops:loop.ops ~window_s:loop.window ~samples:loop.lat
        ~failed:(failed + v.inaccurate) ~unhealthy:v.unhealthy ~rss_mb:rss;
    notes = v.notes @ invalid;
  }

(* --- traced run ------------------------------------------------------------ *)

(* Span names of the in-process serve path, composed from the public calls
   [Service.run_job] makes. *)
type serve_ids = {
  inproc : int;
  decode : int;
  parse : int;
  resolve : int;
  canon : int;
  key : int;
  lookup : int;
  payload : int;
  verify : int;
  store : int;
}

let serve_ids sp =
  let i = Spans.intern sp in
  {
    inproc = i "inproc";
    decode = i "serve.decode";
    parse = i "spice.parse";
    resolve = i "circuit.resolve";
    canon = i "spice.canon";
    key = i "serve.key";
    lookup = i "serve.cache_lookup";
    payload = i "serve.payload";
    verify = i "core.verify";
    store = i "serve.cache_store";
  }

(* [Service.run_job]'s path step by step against [svc]'s caches.  On a hit
   it returns the reply line a worker writes; on a miss it computes the
   reference through [Refpath], verifies it, re-encodes the body [job_reply]
   carries and stores it.  Returns the wire line and, on a miss, the
   composed reference with its learned scale-pair count. *)
let composed sp ids rids svc ~req line (job_reply : Protocol.reply) =
  let span id f = Spans.span sp id ~req f in
  span ids.inproc @@ fun () ->
  let job =
    span ids.decode (fun () ->
        match Protocol.request_of_json (Json.parse (String.trim line)) with
        | Protocol.Submit j -> j
        | _ -> failwith "not a submit request")
  in
  let text = match job.Protocol.netlist with `Text s -> s | `Path _ -> failwith "path job" in
  let circuit = span ids.parse (fun () -> Parser.parse_string text) in
  let circuit, input, output, input_desc, output_desc =
    span ids.resolve (fun () ->
        Service.resolve_io (Transform.inductors_to_gyrators circuit) ~input:job.Protocol.input
          ~output:job.Protocol.output)
  in
  let canonical = span ids.canon (fun () -> Writer.to_string circuit) in
  let key = span ids.key (fun () -> Service.cache_key ~canonical job ~input_desc ~output_desc) in
  let cache = Service.cache svc and disk = Service.disk_cache svc in
  let stored =
    span ids.lookup (fun () ->
        match Cache.find cache ~key with
        | Some s -> Some s
        | None -> Option.bind disk (fun d -> Disk_cache.find d ~key))
  in
  match stored with
  | Some s ->
      let wire =
        span ids.payload (fun () ->
            Json.to_string (Protocol.reply_to_json (Protocol.ok ~id:job.Protocol.id ~cached:true (Json.parse s))))
      in
      (wire, None)
  | None ->
      let t, learned = Refpath.generate sp rids ~req circuit ~input ~output in
      ignore (span ids.verify (fun () -> Reference.health t));
      let rendered, wire =
        span ids.payload (fun () ->
            let body = job_reply.Protocol.body in
            ( Json.to_string body,
              Json.to_string (Protocol.reply_to_json (Protocol.ok ~id:job.Protocol.id body)) ))
      in
      span ids.store (fun () ->
          Cache.add cache ~key rendered;
          Option.iter (fun d -> Disk_cache.store d ~key rendered) disk);
      (wire, Some (t, learned))

let coeff_strings_of (t : Reference.t) side =
  let r = match side with `Num -> t.Reference.num | `Den -> t.Reference.den in
  Array.to_list (Array.map Ef.to_string r.Symref_core.Adaptive.coeffs)

let traced w ~seconds =
  (* Phase 1 (40% of the run): the workload's own closed loop, alternating
     slices between a fleet as the timed runs start it and one started with
     --stats; their medians give the observability overhead, and the
     observed fleet's cache gauges give the hit ratio. *)
  let plain = setup w ~stats:false in
  let obs = setup w ~stats:true in
  let book = new_book () in
  let next = ref 0 and ops = ref 0 and io = ref 0 in
  let lat_plain = ref [] and lat_obs = ref [] in
  let views0 = Fleet.worker_views obs in
  let slices = 4 in
  let slice = seconds *. 0.4 /. float_of_int (2 * slices) in
  (* Both slices of a pair start at the same op index, so the two fleets
     see the same job sequence (fleet-miss jobs are misses on each, since
     the fleets share no cache). *)
  for _ = 1 to slices do
    let first = !next in
    List.iter
      (fun (fleet, acc) ->
        let l = closed_loop ~front:fleet.Fleet.front ~seconds:slice ~first ~line_of:(line_of w) ~record:(record w book) in
        next := Int.max !next (first + l.ops);
        ops := !ops + l.ops;
        io := !io + l.io_failed;
        acc := Array.map snd l.lat :: !acc)
      [ (plain, lat_plain); (obs, lat_obs) ]
  done;
  let views1 = Fleet.worker_views obs in
  let p50 l = Report.median (Array.concat !l) in
  let overhead = 100. *. ((p50 lat_obs /. p50 lat_plain) -. 1.) in
  let sum f vs = List.fold_left (fun acc v -> acc + f v) 0 vs in
  let hits = sum (fun (h, _, _) -> h) views1 - sum (fun (h, _, _) -> h) views0
  and misses = sum (fun (_, m, _) -> m) views1 - sum (fun (_, m, _) -> m) views0 in
  (* Phase 2 (the rest): one job at a time on the observed fleet.  Each job
     goes via the front (the op), then straight to its owner, then via the
     front again; then in-process through [Service.run_job] twice (the
     second a hit) and through the composed path. *)
  let dir = Fleet.fresh_dir () in
  let service sub =
    Service.create
      ~config:{ Service.default_config with Service.workers = 1; disk_cache_dir = Some (Filename.concat dir sub) }
      ()
  in
  let svc = service "compose" in
  let svc_job = match w.kind with Hit -> svc | Miss -> service "job" in
  (match w.kind with
  | Hit -> Array.iteri (fun k key -> ignore (Service.run_job svc (Inputs.job ~id:(Printf.sprintf "k%d" k) key))) w.keys
  | Miss -> ());
  let ring = Router.create (List.init Fleet.size (fun i -> Transport.Unix_sock (Fleet.worker_sock obs.Fleet.dir i))) in
  let front = Fleet.connect obs.Fleet.front in
  let direct = Array.init Fleet.size (fun i -> Fleet.connect (Fleet.worker_sock obs.Fleet.dir i)) in
  let sp = Spans.create () in
  let ids = serve_ids sp and rids = Refpath.ids sp in
  let front_id = Spans.intern sp "client.front"
  and direct_id = Spans.intern sp "client.direct"
  and again_id = Spans.intern sp "client.front_again"
  and job_id = Spans.intern sp "serve.job"
  and job_again_id = Spans.intern sp "serve.job_again" in
  let timed_exchange id ~req c line =
    let t0 = Clock.now () in
    let reply = Fleet.exchange c line in
    Spans.record sp id ~req ~start:t0 ~stop:(Clock.now ());
    reply
  in
  let jobs = ref 0 and symbolic = ref 0 and evals = ref 0 and passes = ref 0 in
  let identity = ref [] in
  let deadline = Clock.now () +. (seconds *. 0.6) in
  while Clock.now () < deadline do
    let i = !next in
    incr next;
    incr ops;
    let job = job_of w i in
    let line = Inputs.request_line job in
    match
      let reply = timed_exchange front_id ~req:i front line in
      record w book ~thread:0 i reply;
      let owner = List.hd (Router.route ring (Router.job_key job)) in
      ignore (timed_exchange direct_id ~req:i direct.(owner) line);
      ignore (timed_exchange again_id ~req:i front line);
      let job_reply = Spans.span sp job_id ~req:i (fun () -> Service.run_job svc_job job) in
      ignore (Spans.span sp job_again_id ~req:i (fun () -> Service.run_job svc_job job));
      let wire, computed = composed sp ids rids svc ~req:i line job_reply in
      (reply, job_reply, wire, computed)
    with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> incr io
    | reply, job_reply, wire, computed -> (
        incr jobs;
        let expected = Json.to_string (Protocol.reply_to_json job_reply) in
        if body_of_line wire <> body_of_line expected then
          identity := (Printf.sprintf "identity.op.%d" i, "composed serve path differs from Service.run_job") :: !identity;
        ignore reply;
        match computed with
        | None -> ()
        | Some (t, learned) ->
            symbolic := !symbolic + learned;
            evals := !evals + Reference.total_evaluations t;
            passes := !passes + Refpath.passes t;
            let body = job_reply.Protocol.body in
            if coeff_strings "num" body <> coeff_strings_of t `Num || coeff_strings "den" body <> coeff_strings_of t `Den
            then identity := (Printf.sprintf "identity.op.%d" i, "composed reference differs from Service.run_job") :: !identity)
  done;
  Fleet.close front;
  Array.iter Fleet.close direct;
  Service.shutdown svc;
  if svc_job != svc then Service.shutdown svc_job;
  Fleet.rm_rf dir;
  (* Counter identity of the composed reference path on the first circuits
     the miss stream sends (fleet-hit computes no reference). *)
  (match w.kind with
  | Hit -> ()
  | Miss ->
      List.iter
        (fun i ->
          let c = circuit_of w i in
          match Refpath.counter_identity (Parser.parse_string c.Inputs.text) ~input:c.Inputs.input ~output:c.Inputs.output with
          | None -> ()
          | Some why -> identity := (Printf.sprintf "identity.%d" i, c.Inputs.name ^ ": " ^ why) :: !identity)
        [ 0; 1 ]);
  let views = Fleet.worker_views obs @ Fleet.worker_views plain in
  let out_obs = Fleet.stop obs and out_plain = Fleet.stop plain in
  let invalid = validity ~views out_obs @ validity ~views:[] out_plain in
  let v = verdict w book in
  let failed = !io + v.wrong + v.shed in
  let counter n = float_of_int (Option.value (List.assoc_opt n out_obs.Fleet.counters) ~default:0) in
  let tot = Spans.totals sp in
  let n = float_of_int (Int.max 1 !jobs) in
  let self_ms name = let s, _, _ = tot name in s *. 1000. /. n in
  let incl_ms name = let _, t, _ = tot name in t *. 1000. /. n in
  (* Both differences compare requests that are hits on both sides, so a
     miss's compute time (and its variation between the worker and this
     process) stays out of them. *)
  let hop = incl_ms "client.front_again" -. incl_ms "client.direct" in
  let wire = incl_ms "client.direct" -. incl_ms "serve.job_again" in
  let composed_layers =
    [ "serve.decode"; "spice.parse"; "circuit.resolve"; "spice.canon"; "serve.key"; "serve.cache_lookup";
      "serve.payload"; "core.verify"; "serve.cache_store"; "mna.stamp"; "linalg.symbolic";
      "linalg.replay_batch"; "linalg.replay_point"; "core.adaptive" ]
  in
  let layer_sum = List.fold_left (fun acc l -> acc +. self_ms l) (wire +. hop) composed_layers in
  let p50_front = Report.median (Spans.durations_of sp "client.front") *. 1000. in
  let metrics =
    Layers.metrics
      [
        ("spice.parse_ms", self_ms "spice.parse");
        ("spice.canon_ms", self_ms "spice.canon");
        ("circuit.resolve_ms", self_ms "circuit.resolve");
        ("mna.stamp_ms", self_ms "mna.stamp");
        ("linalg.symbolic_ms", self_ms "linalg.symbolic");
        ("linalg.symbolic_count", float_of_int !symbolic /. n);
        ("linalg.replay_batch_ms", self_ms "linalg.replay_batch");
        ("linalg.replay_point_ms", self_ms "linalg.replay_point");
        ("linalg.lu_evals", float_of_int !evals /. n);
        ("core.adaptive_self_ms", self_ms "core.adaptive");
        ("core.passes", float_of_int !passes /. n);
        ("core.verify_ms", self_ms "core.verify");
        ("serve.decode_ms", self_ms "serve.decode");
        ("serve.key_ms", self_ms "serve.key");
        ("serve.cache_lookup_ms", self_ms "serve.cache_lookup");
        ("serve.payload_ms", self_ms "serve.payload");
        ("serve.job_ms", incl_ms "serve.job");
        ("serve.cache_store_ms", self_ms "serve.cache_store");
        ("serve.wire_ms", wire);
        ("serve.router_hop_ms", hop);
        ("serve.cache_hit_ratio", Report.ratio hits (hits + misses));
        ("router.hedge_ratio", if counter "router.requests" = 0. then 0. else counter "router.hedges" /. counter "router.requests");
        ("serve.shed_ratio", Report.ratio v.shed !ops);
        ("error_ratio", Report.ratio (failed + v.inaccurate) !ops);
        ("unhealthy_ratio", Report.ratio v.unhealthy !ops);
        ("obs.trace_overhead_pct", overhead);
        ("trace.coverage_pct", 100. *. layer_sum /. p50_front);
      ]
  in
  {
    Report.correct = failed = 0 && invalid = [] && !identity = [];
    attempted = !ops;
    failed;
    metrics;
    notes = v.notes @ invalid @ List.rev !identity;
  }

let run kind ~seed ~seconds ~trace =
  let w = make kind ~seed in
  if trace then traced w ~seconds else timed w ~seconds
