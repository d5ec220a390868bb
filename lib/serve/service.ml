(* Job execution for the serve subsystem.

   A worker runs [run_job] from start to finish: read, parse, canonicalise,
   resolve the drive and the probe, look the canonical key up in the cache,
   compute on a miss, store the rendered payload.  A repeat of an inline
   job's exact spelling short-cuts all of that through the cache's alias
   table.  Every expected failure is mapped to a structured reply here, so
   neither the daemon loop nor the batch sweep ever sees an exception from
   a job. *)

module N = Symref_circuit.Netlist
module Element = Symref_circuit.Element
module Transform = Symref_circuit.Transform
module Nodal = Symref_mna.Nodal
module Parser = Symref_spice.Parser
module Writer = Symref_spice.Writer
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Poles = Symref_core.Poles
module Sym = Symref_symbolic.Sym
module Nested = Symref_symbolic.Nested
module Sbg = Symref_symbolic.Sbg
module Pipeline = Symref_simplify.Pipeline
module Budget = Symref_simplify.Budget
module Certificate = Symref_simplify.Certificate
module Grid = Symref_numeric.Grid
module Ef = Symref_numeric.Extfloat
module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics
module Snapshot = Symref_obs.Snapshot
module Inject = Symref_fault.Inject

type config = {
  workers : int;
  capacity : int;
  queue : int;
  cache_bytes : int;
  default_timeout_ms : int option;
  disk_cache_dir : string option;
  backlog : int;
  socket_mode : int option;
}

let default_config =
  {
    workers = 0;
    capacity = 64;
    queue = 64;
    cache_bytes = 64 * 1024 * 1024;
    default_timeout_ms = None;
    disk_cache_dir = None;
    backlog = 16;
    socket_mode = None;
  }

type t = {
  cfg : config;
  cache : Cache.t;
  disk : Disk_cache.t option;
  sched : Scheduler.t;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    cache = Cache.create ~max_bytes:config.cache_bytes ();
    disk = Option.map (fun dir -> Disk_cache.create ~dir) config.disk_cache_dir;
    sched =
      Scheduler.create ~capacity:config.capacity ~queue:config.queue
        ~workers:config.workers ();
  }

exception Deadline_exceeded

let config t = t.cfg
let scheduler t = t.sched
let cache t = t.cache
let disk_cache t = t.disk

(* --- input/output resolution --- *)

let parse_input circuit s =
  let split_pair v =
    match String.split_on_char ',' v with
    | [ a; b ] -> (a, b)
    | _ -> Errors.bad_spec "input" "expected two comma-separated node names"
  in
  match String.index_opt s ':' with
  | None -> (
      match N.find_element circuit s with
      | Some _ -> Nodal.Vsrc_element s
      | None -> Errors.bad_spec "input" "no element named %s in the netlist" s)
  | Some i -> (
      let kind = String.sub s 0 i
      and v = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "diff" ->
          let p, m = split_pair v in
          Nodal.V_diff (p, m)
      | "node" -> Nodal.V_single v
      | "current" -> Nodal.I_single v
      | k -> Errors.bad_spec "input" "unknown input kind %s" k)

let parse_output s =
  match String.split_on_char ',' s with
  | [ a ] -> Nodal.Out_node a
  | [ a; b ] -> Nodal.Out_diff (a, b)
  | _ -> Errors.bad_spec "output" "output must be NODE or NODE,NODE"

(* Grounded voltage sources, each as (name, non-ground node, effective drive
   at that node) — the sign flips when the source hangs off ground by its
   positive terminal. *)
let grounded_vsrcs circuit =
  List.filter_map
    (fun (e : Element.t) ->
      match e.Element.kind with
      | Element.Vsrc { p; m; volts } when p = 0 && m <> 0 ->
          Some (e.Element.name, N.node_name circuit m, -.volts)
      | Element.Vsrc { p; m; volts } when m = 0 && p <> 0 ->
          Some (e.Element.name, N.node_name circuit p, volts)
      | _ -> None)
    (N.elements circuit)

let vsrc_count circuit =
  List.length
    (List.filter
       (fun (e : Element.t) ->
         match e.Element.kind with Element.Vsrc _ -> true | _ -> false)
       (N.elements circuit))

let auto_input circuit =
  let grounded = grounded_vsrcs circuit in
  match (grounded, vsrc_count circuit) with
  | [ (name, _, _) ], 1 ->
      (* The classic single-drive netlist: use the source itself. *)
      (Nodal.Vsrc_element name, name)
  | [ (_, node1, v1); (_, node2, v2) ], 2
    when v1 *. v2 < 0. && Float.abs (Float.abs v1 -. Float.abs v2) = 0. ->
      (* An antisymmetric source pair (the uA741 sample netlist): drive the
         pair differentially, in place of both sources. *)
      let p, m = if v1 > 0. then (node1, node2) else (node2, node1) in
      (Nodal.V_diff (p, m), Printf.sprintf "diff:%s,%s" p m)
  | _, 0 -> (
      match
        List.find_opt (fun n -> N.node_id circuit n <> None) [ "in"; "vin" ]
      with
      | Some n -> (Nodal.V_single n, "node:" ^ n)
      | None ->
          Errors.bad_spec "input"
            "cannot auto-detect the input: no voltage source and no node \
             named in/vin (pass input explicitly)")
  | _ ->
      Errors.bad_spec "input"
        "cannot auto-detect the input: the voltage sources are not a single \
         grounded drive or an antisymmetric grounded pair (pass input \
         explicitly)"

let resolve_output circuit = function
  | Some s -> (parse_output s, s)
  | None -> (
      match
        List.find_opt (fun n -> N.node_id circuit n <> None) [ "out"; "vout"; "output" ]
      with
      | Some n -> (Nodal.Out_node n, n)
      | None ->
          let last = N.node_count circuit in
          if last = 0 then
            Errors.bad_spec "output" "cannot auto-detect the output: no nodes"
          else
            let n = N.node_name circuit last in
            (Nodal.Out_node n, n))

(* A voltage drive at a node replaces the netlist's own grounded source
   there: the antisymmetric pair [auto] drives, or any explicit drive. *)
let without_sources_at circuit input =
  let driven =
    match input with
    | Nodal.V_diff (p, m) | Nodal.V_common (p, m) -> [ p; m ]
    | Nodal.V_single p -> [ p ]
    | Nodal.Vsrc_element _ | Nodal.I_single _ -> []
  in
  List.fold_left
    (fun c (name, node, _) ->
      if List.mem node driven then N.remove_element c name else c)
    circuit (grounded_vsrcs circuit)

let resolve_io circuit ~input ~output =
  let input, input_desc =
    if input = "auto" then auto_input circuit
    else (parse_input circuit input, input)
  in
  let circuit = without_sources_at circuit input in
  let output, output_desc = resolve_output circuit output in
  (circuit, input, output, input_desc, output_desc)

(* --- loading: a job's netlist, drive and probe --- *)

type loaded = {
  netlist : N.t;
  circuit : N.t;
  input : Nodal.input;
  output : Nodal.output;
  input_desc : string;
  output_desc : string;
}

let load (job : Protocol.job) =
  let source =
    match job.Protocol.netlist with
    | `Text s -> s
    | `Path p -> (
        (* A directory opens fine and fails on the first read with a bare
           errno message; name the path so the diagnostic says which file. *)
        try In_channel.with_open_bin p In_channel.input_all
        with Sys_error m when not (String.starts_with ~prefix:p m) ->
          raise (Sys_error (p ^ ": " ^ m)))
  in
  let netlist = Transform.inductors_to_gyrators (Parser.parse_string source) in
  let circuit, input, output, input_desc, output_desc =
    resolve_io netlist ~input:job.Protocol.input ~output:job.Protocol.output
  in
  { netlist; circuit; input; output; input_desc; output_desc }

let adaptive_config (job : Protocol.job) =
  { Adaptive.default_config with Adaptive.sigma = job.Protocol.sigma; r = job.Protocol.r }

let pipeline_config (job : Protocol.job) =
  { Pipeline.default_config with Pipeline.sigma = job.Protocol.sigma; r = job.Protocol.r }

let netlist_name (job : Protocol.job) =
  match job.Protocol.netlist with `Path p -> p | `Text _ -> "<inline>"

let error_of_exn job = function
  | Parser.Parse_error { line; message } ->
      ("parse", Printf.sprintf "%s:%d: %s" (netlist_name job) line message)
  | Nodal.Unsupported m -> ("unsupported", "unsupported circuit: " ^ m)
  | Pipeline.Symbolic_limit { dim; limit } ->
      ( "symbolic_limit",
        Printf.sprintf
          "pruned circuit dimension %d exceeds the symbolic limit %d; \
           simplify needs a circuit (after pruning) of dimension <= %d"
          dim limit limit )
  | Errors.Error e -> (Errors.kind e, Errors.message e)
  | Inject.Injected m -> ("injected", m)
  | Failure m | Invalid_argument m -> ("invalid", m)
  | Sys_error m -> ("io", m)
  | e -> ("internal", Printexc.to_string e)

(* --- cache keys --- *)

let cache_key ~canonical (job : Protocol.job) ~input_desc ~output_desc =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            canonical;
            Protocol.analysis_to_string job.Protocol.analysis;
            input_desc;
            output_desc;
            string_of_int job.Protocol.sigma;
            Printf.sprintf "%.17g" job.Protocol.r;
          ]))

(* --- payload builders --- *)

let str s = Json.Str s
let num x = Json.Num x
let inum i = Json.Num (float_of_int i)

(* Coefficients travel as extended-float strings: the representation is
   exact (no double rounding on the wire) and trivially bit-stable. *)
let coeff_array (r : Adaptive.result) =
  Json.Arr (Array.to_list (Array.map (fun v -> str (Ef.to_string v)) r.Adaptive.coeffs))

let side_fields (r : Adaptive.result) =
  [
    ("order", inum r.Adaptive.effective_order);
    ("passes", inum r.Adaptive.passes);
    ("evaluations", inum r.Adaptive.evaluations);
    ("converged", Json.Bool r.Adaptive.converged);
  ]

(* The per-job health verdict (see {!Reference.health}): convergence, an
   independent residual probe, and the recovery counters.  Costs a handful
   of extra LU evaluations per computed (not cached) job. *)
let health_json (t : Reference.t) =
  let h = Reference.health t in
  Json.Obj
    [
      ("converged", Json.Bool h.Reference.converged);
      ("verified", Json.Bool h.Reference.verified);
      ("max_residual", num h.Reference.max_residual);
      ("probes", inum h.Reference.probes);
      ("singular_retries", inum h.Reference.singular_retries);
      ("nonfinite_retries", inum h.Reference.nonfinite_retries);
      ("retry_giveups", inum h.Reference.retry_giveups);
      ("healthy", Json.Bool h.Reference.healthy);
    ]

let coeffs_fields (t : Reference.t) =
  [
    ("num", coeff_array t.Reference.num);
    ("den", coeff_array t.Reference.den);
    ("num_info", Json.Obj (side_fields t.Reference.num));
    ("den_info", Json.Obj (side_fields t.Reference.den));
    ("dc_gain", num (Reference.dc_gain t));
  ]

let pass_reports (r : Adaptive.result) =
  Json.Arr
    (List.map
       (fun (b : Adaptive.band_report) ->
         Json.Obj
           [
             ("pass", inum b.Adaptive.pass);
             ("points", inum b.Adaptive.points);
             ("evaluations", inum b.Adaptive.evaluations);
             ("fresh", inum b.Adaptive.fresh);
           ])
       r.Adaptive.reports)

let payload (job : Protocol.job) ~input_desc ~output_desc (t : Reference.t) =
  let common =
    [
      ("analysis", str (Protocol.analysis_to_string job.Protocol.analysis));
      ("input", str input_desc);
      ("output", str output_desc);
      ("health", health_json t);
    ]
  in
  match job.Protocol.analysis with
  | Protocol.Simplify _ ->
      (* Dispatched to [simplify_payload] before any reference exists. *)
      invalid_arg "Service.payload: simplify does not use the reference payload"
  | Protocol.Reference -> Json.Obj (common @ coeffs_fields t)
  | Protocol.Adaptive ->
      Json.Obj
        (common @ coeffs_fields t
        @ [
            ("num_reports", pass_reports t.Reference.num);
            ("den_reports", pass_reports t.Reference.den);
          ])
  | Protocol.Bode { from_hz; to_hz; per_decade } ->
      let freqs = Grid.decades ~start:from_hz ~stop:to_hz ~per_decade in
      let points =
        Array.to_list
          (Array.map
             (fun (p : Reference.bode_point) ->
               Json.Obj
                 [
                   ("freq_hz", num p.Reference.freq_hz);
                   ("mag_db", num p.Reference.mag_db);
                   ("phase_deg", num p.Reference.phase_deg);
                 ])
             (Reference.bode t freqs))
      in
      Json.Obj (common @ [ ("points", Json.Arr points) ])
  | Protocol.Poles ->
      let a = Poles.analyse t in
      let cplx z = Json.Arr [ num z.Complex.re; num z.Complex.im ] in
      let roots zs = Json.Arr (Array.to_list (Array.map cplx zs)) in
      Json.Obj
        (common
        @ [
            ("poles", roots a.Poles.poles);
            ("zeros", roots a.Poles.zeros);
            ("stable", Json.Bool a.Poles.stable);
            ( "resonances",
              Json.Arr
                (List.map
                   (fun (r : Poles.resonance) ->
                     Json.Obj
                       [ ("freq_hz", num r.Poles.freq_hz); ("q", num r.Poles.q) ])
                   a.Poles.resonances) );
          ])

(* The simplify payload: simplified expressions (flat and nested forms),
   per-stage removal logs and the error certificate.  Rendered from the
   same deterministic printers as everything else, so the stored string
   replays bit-identically from either cache layer. *)
let simplify_payload (job : Protocol.job) ~input_desc ~output_desc
    (r : Pipeline.result) =
  let removal (rm : Sbg.removal) =
    Json.Obj
      [
        ("element", str rm.Sbg.element);
        ( "action",
          str (match rm.Sbg.action with Sbg.Opened -> "opened" | Sbg.Shorted -> "shorted") );
        ("delta_db", num rm.Sbg.delta_db);
        ("delta_deg", num rm.Sbg.delta_deg);
        ("error_db", num rm.Sbg.error_db);
        ("error_deg", num rm.Sbg.error_deg);
      ]
  in
  let sdg_side (rep : Symref_simplify.Pipeline.result) get =
    let s : Symref_symbolic.Sdg.report = get rep in
    Json.Obj
      [
        ("total_terms", inum s.Symref_symbolic.Sdg.total_terms);
        ("kept_terms", inum s.Symref_symbolic.Sdg.kept_terms);
      ]
  in
  Json.Obj
    [
      ("analysis", str (Protocol.analysis_to_string job.Protocol.analysis));
      ("input", str input_desc);
      ("output", str output_desc);
      ("health", health_json r.Pipeline.reference);
      ( "elements",
        Json.Obj
          [
            ("before", inum r.Pipeline.elements_before);
            ("after", inum r.Pipeline.elements_after);
          ] );
      ("dim", inum r.Pipeline.dim);
      ( "exact_terms",
        Json.Obj
          [
            ("num", inum r.Pipeline.exact_num_terms);
            ("den", inum r.Pipeline.exact_den_terms);
          ] );
      ( "terms",
        Json.Obj
          [ ("num", inum r.Pipeline.num_terms); ("den", inum r.Pipeline.den_terms) ]
      );
      ("num", str (Sym.to_string r.Pipeline.num));
      ("den", str (Sym.to_string r.Pipeline.den));
      ("num_nested", str (Nested.to_string (Nested.nest r.Pipeline.num)));
      ("den_nested", str (Nested.to_string (Nested.nest r.Pipeline.den)));
      ( "sbg",
        Json.Obj
          [
            ("removals", Json.Arr (List.map removal r.Pipeline.sbg.Sbg.removals));
            ("error_db", num r.Pipeline.sbg.Sbg.error_db);
            ("error_deg", num r.Pipeline.sbg.Sbg.error_deg);
            ("candidates", inum r.Pipeline.sbg.Sbg.candidates);
            ("trials", inum r.Pipeline.sbg.Sbg.trials);
          ] );
      ( "sdg",
        Json.Obj
          [
            ("num", sdg_side r (fun x -> x.Pipeline.sdg_num));
            ("den", sdg_side r (fun x -> x.Pipeline.sdg_den));
          ] );
      ( "sag",
        Json.Obj
          [
            ("total_terms", inum r.Pipeline.sag.Symref_symbolic.Sag.total_terms);
            ("kept_terms", inum r.Pipeline.sag.Symref_symbolic.Sag.kept_terms);
            ("dropped", inum r.Pipeline.sag.Symref_symbolic.Sag.dropped);
            ("max_error", num r.Pipeline.sag.Symref_symbolic.Sag.max_error);
          ] );
      ("attempts", inum r.Pipeline.attempts);
      ("fallback", Json.Bool r.Pipeline.fallback);
      ("certificate", Certificate.to_json r.Pipeline.certificate);
    ]

(* --- job execution --- *)

(* A stored payload, replayed verbatim: bit-identical to the reply that
   first produced it. *)
let replay ~id stored =
  Metrics.incr Metrics.serve_jobs_completed;
  Protocol.ok ~id ~cached:true (Json.parse stored)

(* The canonical path: parse, canonicalise, look the content key up in the
   LRU and then on disk, compute on a miss.  Only a job that gets this far
   without raising records [alias] for its key, so an error is never
   memoised. *)
let run_canonical t ~check ~alias (job : Protocol.job) =
  let id = job.Protocol.id in
  let { circuit; input; output; input_desc; output_desc; _ } = load job in
  let canonical = Writer.to_string circuit in
  let key = cache_key ~canonical job ~input_desc ~output_desc in
  let remember () =
    Option.iter (fun alias -> Cache.alias t.cache ~alias ~key) alias
  in
  match Cache.find t.cache ~key with
  | Some stored ->
      remember ();
      replay ~id stored
  | None -> (
      (* Layered lookup: the persistent on-disk cache sits under the LRU,
         so a hit survives restarts and is shared across the fleet's
         processes. *)
      let disk_hit =
        match t.disk with
        | None -> None
        | Some d -> Disk_cache.find d ~key
      in
      match disk_hit with
      | Some stored ->
          Cache.add t.cache ~key stored;
          remember ();
          replay ~id stored
      | None ->
          let body =
            match job.Protocol.analysis with
            | Protocol.Simplify
                { budget_db; budget_deg; from_hz; to_hz; per_decade } ->
                (* The pipeline generates its own references (full and
                   pruned circuit) and verifies over the request's grid. *)
                let freqs = Grid.decades ~start:from_hz ~stop:to_hz ~per_decade in
                let budget = Budget.v ~db:budget_db ~deg:budget_deg () in
                let result =
                  Pipeline.run ~config:(pipeline_config job) ~check circuit
                    ~input ~output ~budget ~freqs
                in
                simplify_payload job ~input_desc ~output_desc result
            | _ ->
                let reference =
                  Reference.generate ~config:(adaptive_config job) ~check
                    circuit ~input ~output
                in
                payload job ~input_desc ~output_desc reference
          in
          let rendered = Json.to_string body in
          Cache.add t.cache ~key rendered;
          remember ();
          Option.iter (fun d -> Disk_cache.store d ~key rendered) t.disk;
          Metrics.incr Metrics.serve_jobs_completed;
          Protocol.ok ~id body)

let run_job t ?deadline (job : Protocol.job) =
  let id = job.Protocol.id in
  let check () =
    match deadline with
    | Some d when Unix.gettimeofday () >= d -> raise Deadline_exceeded
    | _ -> ()
  in
  try
    check ();
    (* The spelling memo: a [`Text] job whose exact spelling was answered
       before maps straight to its canonical key, so a repeat skips parse,
       transform, [resolve_io] and canonicalisation.  A [`Path] job is
       never memoised: the file behind the path may change. *)
    let alias =
      match job.Protocol.netlist with
      | `Text _ -> Some (Protocol.spelling_key job)
      | `Path _ -> None
    in
    match Option.bind alias (fun alias -> Cache.find_alias t.cache ~alias) with
    | Some stored -> replay ~id stored
    | None -> run_canonical t ~check ~alias job
  with
  | Deadline_exceeded ->
      Metrics.incr Metrics.serve_jobs_timeout;
      Protocol.error ~id ~status:Protocol.Timeout ~kind:"timeout"
        "job exceeded its wall-clock budget"
  | e ->
      let kind, message = error_of_exn job e in
      Metrics.incr Metrics.serve_jobs_failed;
      Protocol.error ~id ~kind message

let submit t (job : Protocol.job) =
  let timeout_ms =
    match job.Protocol.timeout_ms with
    | Some _ as s -> s
    | None -> t.cfg.default_timeout_ms
  in
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.)) timeout_ms
  in
  match Scheduler.submit ?deadline t.sched (fun () -> run_job t ?deadline job) with
  | Scheduler.Admitted ticket -> `Ticket ticket
  | Scheduler.Shed { retry_after_ms } ->
      `Rejected
        (Protocol.overloaded ~id:job.Protocol.id ~retry_after_ms
           "job shed by admission control, retry after the hint")
  | Scheduler.Stopped ->
      `Rejected
        (Protocol.error ~id:job.Protocol.id ~status:Protocol.Busy ~kind:"busy"
           "daemon is shutting down, retry elsewhere")

let stats_json t =
  Json.Obj
    ([
       ("version", str Version.version);
       ("cache", Cache.stats_json t.cache);
     ]
    @ (match t.disk with
      | Some d -> [ ("disk_cache", Disk_cache.stats_json d) ]
      | None -> [])
    @ [
      ( "scheduler",
        Json.Obj
          [
            ("pending", inum (Scheduler.pending t.sched));
            ("queued", inum (Scheduler.queued t.sched));
            ("capacity", inum (Scheduler.capacity t.sched));
            ("queue_capacity", inum (Scheduler.queue_capacity t.sched));
            ("retry_after_ms", num (Scheduler.retry_after_estimate t.sched));
          ] );
      ("counters", Snapshot.to_json (Snapshot.capture ()));
    ])

let drain t = Scheduler.drain t.sched
let shutdown t = Scheduler.shutdown t.sched
