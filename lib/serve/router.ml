(* Consistent-hash front router for a fleet of serve daemons.

   The ring holds [replicas] virtual nodes per worker (MD5 of
   "<addr>#<i>", first 8 bytes as an unsigned int64), sorted by hash.  A
   job's key hashes onto the ring and walks clockwise: the first virtual
   node's worker owns it, the following *distinct* workers are its failover
   order.  Adding or removing one worker therefore only remaps the keys
   that hashed onto its virtual nodes — the rest of the fleet keeps its
   (warm) share.

   The router holds no job state: it forwards one request, relays one
   reply.  Forwards travel on kept connections, a small idle pool per
   worker, so a cache hit costs one exchange and no connect.  Worker
   health is tracked by a per-worker circuit breaker (closed -> open on
   failures -> half-open probe -> closed), but the marks stay advisory:
   when every candidate's breaker refuses, the walk tries them all
   anyway — a stale "open" must degrade to a slow request, not an outage.

   Tail latency is covered by hedging: when the owner has not answered
   after a delay derived from recent forward latencies (p99, clamped), the
   same job is re-issued to the next ring candidate and the first reply
   wins.  Both exchanges run on the forwarding thread, multiplexed by one
   [Unix.select].  Workers are deterministic and idempotent, so a
   duplicated job can only waste one worker's time, never change the
   answer. *)

module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics

(* --- circuit breakers --- *)

type breaker_state =
  | Closed
  | Open of { until : float }
  | Half_open of { since : float }

type breaker_view = [ `Closed | `Open | `Half_open ]

type breaker_config = {
  threshold : int;  (* consecutive forward failures that open the breaker *)
  cooldown_ms : float;  (* first open interval; doubles per re-open *)
  max_cooldown_ms : float;
}

let default_breaker =
  { threshold = 3; cooldown_ms = 250.; max_cooldown_ms = 10_000. }

(* --- hedging --- *)

type hedge_config = {
  after_ms_min : float;
  after_ms_max : float;
  percentile : float;  (* of recent forward latencies, e.g. 0.99 *)
}

let default_hedge = { after_ms_min = 25.; after_ms_max = 500.; percentile = 0.99 }

type worker = {
  addr : Transport.address;
  mutable state : breaker_state;
  mutable failures : int;  (* consecutive failures while Closed *)
  mutable streak : int;  (* opens since the last close, paces re-probing *)
  mutable probes : int;  (* probes sent, salts the deterministic jitter *)
  mutable next_probe : float;  (* prober schedule, unix time *)
  mutable idle : Client.t list;  (* kept connections, each between exchanges *)
  mutable reuses : int;  (* forwards sent on a kept connection *)
  mutable connects : int;  (* connections opened for forwards *)
}

let lat_window = 256

type t = {
  workers : worker array;
  ring : (int64 * int) array; (* (vnode hash, worker index), sorted *)
  replicas : int;
  backoff : Client.backoff;
  breaker : breaker_config;
  hedge : hedge_config option;
  lat : float array; (* ring buffer of forward latencies, ms *)
  mutable lat_n : int; (* samples recorded, saturates at lat_window *)
  mutable lat_i : int; (* next write slot *)
  lock : Mutex.t; (* guards worker fields and the latency buffer *)
}

(* A signal must never unwind the prober loop: an interrupted nap just ends
   early. *)
let sleepf s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let hash64 s =
  let d = Digest.string s in
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor (Int64.shift_left !x 8) (Int64.of_int (Char.code d.[i]))
  done;
  !x

(* Forwarding wants to fail over quickly, not sit out a full client retry
   schedule against a dead worker: two attempts, short delays. *)
let default_backoff =
  { Client.default_backoff with Client.attempts = 2; base_delay_ms = 10. }

let create ?(replicas = 64) ?(backoff = default_backoff)
    ?(breaker = default_breaker) ?(hedge = Some default_hedge) addrs =
  if addrs = [] then invalid_arg "Router.create: no workers";
  if replicas < 1 then invalid_arg "Router.create: replicas must be >= 1";
  if breaker.threshold < 1 then
    invalid_arg "Router.create: breaker threshold must be >= 1";
  (* A kept connection whose worker has died fails on the next write: that
     must come back as EPIPE, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    Array.of_list
      (List.map
         (fun addr ->
           {
             addr;
             state = Closed;
             failures = 0;
             streak = 0;
             probes = 0;
             next_probe = 0.;
             idle = [];
             reuses = 0;
             connects = 0;
           })
         addrs)
  in
  let ring =
    Array.init
      (Array.length workers * replicas)
      (fun i ->
        let w = i / replicas and r = i mod replicas in
        ( hash64
            (Printf.sprintf "%s#%d" (Transport.to_string workers.(w).addr) r),
          w ))
  in
  Array.sort
    (fun (a, wa) (b, wb) ->
      match Int64.unsigned_compare a b with 0 -> compare wa wb | c -> c)
    ring;
  {
    workers;
    ring;
    replicas;
    backoff;
    breaker;
    hedge;
    lat = Array.make lat_window 0.;
    lat_n = 0;
    lat_i = 0;
    lock = Mutex.create ();
  }

let workers t = Array.to_list (Array.map (fun w -> w.addr) t.workers)

(* Identical requests always land on the same worker, which is what makes
   each worker's LRU cache effective; only the owner parses the netlist,
   and only the first time it sees this spelling. *)
let job_key = Protocol.spelling_key

(* First ring slot at or clockwise-after [h] (binary search, wrapping). *)
let ring_start t h =
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.ring.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

(* Worker indices in ring order starting at the key's owner, each worker
   once: the failover sequence. *)
let route t key =
  let n = Array.length t.ring in
  let start = ring_start t (hash64 key) in
  let seen = Array.make (Array.length t.workers) false in
  let order = ref [] in
  for i = 0 to n - 1 do
    let _, w = t.ring.((start + i) mod n) in
    if not seen.(w) then begin
      seen.(w) <- true;
      order := w :: !order
    end
  done;
  List.rev !order

let owner t key =
  match route t key with
  | w :: _ -> t.workers.(w).addr
  | [] -> assert false (* create requires >= 1 worker *)

(* --- breaker transitions (all under t.lock) --- *)

let with_lock t f =
  Mutex.lock t.lock;
  let v = try f () with e -> Mutex.unlock t.lock; raise e in
  Mutex.unlock t.lock;
  v

(* splitmix64 finalizer: a full-avalanche bijection, so consecutive probe
   counts give independent-looking jitter without any hidden state. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

(* Deterministic probe jitter in [0.8, 1.2): spelled by (worker, probe
   count) alone, so replays schedule identically while distinct workers
   never probe in lockstep. *)
let probe_jitter ~salt n =
  let h = mix64 (Int64.of_int ((salt * 1_000_003) + n)) in
  let u =
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.
  in
  0.8 +. (0.4 *. u)

let cooldown_s t (w : worker) =
  Float.min t.breaker.max_cooldown_ms
    (t.breaker.cooldown_ms *. Float.pow 2. (float_of_int (Int.min w.streak 10)))
  /. 1000.

(* Kept connections of a worker judged down are dropped with it: the next
   forward after recovery connects afresh. *)
let open_locked t (w : worker) now =
  w.state <- Open { until = now +. cooldown_s t w };
  w.streak <- w.streak + 1;
  w.failures <- 0;
  List.iter Client.close w.idle;
  w.idle <- [];
  Metrics.incr Metrics.router_breaker_opens;
  Metrics.incr Metrics.router_dead_workers

let record_success t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      (match w.state with
      | Closed -> ()
      | Open _ | Half_open _ ->
          w.state <- Closed;
          Metrics.incr Metrics.router_breaker_closes);
      w.failures <- 0;
      w.streak <- 0)

(* A failed forward: below the threshold it only counts; at the threshold
   the breaker opens.  A failed half-open probe re-opens with a doubled
   cooldown (capped), which is what paces re-probing of a worker that
   stays down. *)
let record_failure t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Closed ->
          w.failures <- w.failures + 1;
          if w.failures >= t.breaker.threshold then open_locked t w now
      | Half_open _ -> open_locked t w now
      | Open _ -> ())

(* The dedicated prober is authoritative: a worker that cannot answer
   Hello is down now, whatever the forward count says. *)
let trip t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Open _ -> ()
      | Closed | Half_open _ -> open_locked t w now)

(* May this worker take a request right now?  Closed: yes.  Open past its
   cooldown: yes.  Half-open (a probe is already in flight) or still
   cooling: no.  Read-only on purpose: merely being listed as a candidate
   must not burn the single half-open probe slot — a walk that ends
   before reaching an expired-open worker leaves it Open, and the claim
   happens only when a request is actually sent ({!claim_half_open}). *)
let admits t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Closed -> true
      | Open { until } -> now >= until
      | Half_open _ -> false)

(* The moment an exchange actually goes out: an Open breaker past its
   cooldown flips to Half_open here and nowhere else, so this request is
   the single probe and an untried candidate never gets parked
   Half_open (which would refuse its traffic until the prober's grace). *)
let claim_half_open t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Open { until } when now >= until ->
          w.state <- Half_open { since = now };
          Metrics.incr Metrics.router_breaker_half_opens;
          true
      | Closed | Open _ | Half_open _ -> false)

(* A probe abandoned without a verdict (the other racer won) hands the
   half-open slot back: Open with its cooldown already spent, so the next
   request claims it again instead of waiting for the prober's grace. *)
let release_half_open t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      match w.state with
      | Half_open _ -> w.state <- Open { until = Unix.gettimeofday () }
      | Closed | Open _ -> ())

let breaker_state t wi : breaker_view =
  with_lock t (fun () ->
      match t.workers.(wi).state with
      | Closed -> `Closed
      | Open _ -> `Open
      | Half_open _ -> `Half_open)

let breaker_label = function
  | `Closed -> "closed"
  | `Open -> "open"
  | `Half_open -> "half_open"

(* --- latency book-keeping and the hedge delay --- *)

let record_latency t ms =
  with_lock t (fun () ->
      t.lat.(t.lat_i) <- ms;
      t.lat_i <- (t.lat_i + 1) mod lat_window;
      if t.lat_n < lat_window then t.lat_n <- t.lat_n + 1)

(* The hedge delay: the configured percentile of recent forward latencies,
   clamped into [after_ms_min, after_ms_max].  With no samples yet the
   delay is the max — hedging starts conservative and tightens as the
   router learns the fleet's actual tail. *)
let hedge_delay_ms t =
  match t.hedge with
  | None -> infinity
  | Some h ->
      if t.lat_n = 0 then h.after_ms_max
      else
        let sample =
          with_lock t (fun () -> Array.sub t.lat 0 t.lat_n)
        in
        Array.sort compare sample;
        let i =
          Int.min
            (Array.length sample - 1)
            (int_of_float (h.percentile *. float_of_int (Array.length sample)))
        in
        Float.max h.after_ms_min (Float.min h.after_ms_max sample.(i))

(* --- forwarding: pooled connections, one select per race --- *)

let checkout t wi =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      match w.idle with
      | c :: rest ->
          w.idle <- rest;
          w.reuses <- w.reuses + 1;
          Some c
      | [] -> None)

let checkin t wi c =
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      w.idle <- c :: w.idle)

(* Where one exchange with one worker stands, and what it waits for. *)
type phase =
  | Connecting  (* non-blocking connect in flight: wait writable *)
  | Greeting  (* wait readable: the banner line *)
  | Awaiting  (* request sent; wait readable: the reply line *)
  | Pausing of float  (* backoff until this time, then a new attempt *)
  | Finished of
      ( Protocol.reply,
        [ `Unix of Unix.error | `Typed of Errors.t | `Sys of string | `Fatal of exn ]
      )
      result

type racer = {
  wi : int;
  req : Protocol.request;
  pooled : bool;  (* forwards take kept connections and return them *)
  started : float;
  claimed : bool;  (* this exchange is the worker's half-open probe *)
  mutable conn : Client.t option;
  mutable reused : bool;  (* [conn] came from the pool *)
  mutable attempt : int;  (* backoff retries spent *)
  mutable phase : phase;
}

let connect_fresh t r =
  if r.pooled then begin
    Metrics.incr Metrics.router_pool_connects;
    with_lock t (fun () ->
        let w = t.workers.(r.wi) in
        w.connects <- w.connects + 1)
  end;
  r.reused <- false;
  let c, established = Client.start_connect ~addr:t.workers.(r.wi).addr in
  r.conn <- Some c;
  r.phase <- (if established then Greeting else Connecting)

let launch t r =
  match if r.pooled then checkout t r.wi else None with
  | Some c ->
      Metrics.incr Metrics.router_pool_reuses;
      r.conn <- Some c;
      r.reused <- true;
      r.phase <- Awaiting;
      Client.send c r.req
  | None -> connect_fresh t r

let is_backpressure (reply : Protocol.reply) =
  reply.Protocol.status = Protocol.Busy
  || reply.Protocol.status = Protocol.Overloaded

(* Retries follow {!Client.retry_request}'s schedule: backpressure and
   transient failures sleep [delay_after] (in [Pausing], so a race keeps
   running) until [backoff.attempts] is spent. *)
let pause t r ~retry_after_ms =
  Metrics.incr Metrics.serve_client_retries;
  let ms = Client.delay_after t.backoff ~attempt:r.attempt ~retry_after_ms in
  r.attempt <- r.attempt + 1;
  r.phase <- Pausing (Unix.gettimeofday () +. (ms /. 1000.))

let retries_left t r = r.attempt < t.backoff.Client.attempts - 1

(* A complete reply: the connection is between exchanges again, so a
   forward returns it to the pool. *)
let succeed t r reply =
  (match r.conn with
  | Some c when r.pooled && not (Client.pending_input c) -> checkin t r.wi c
  | Some c -> Client.close c
  | None -> ());
  r.conn <- None;
  if is_backpressure reply && retries_left t r then
    pause t r ~retry_after_ms:(Protocol.retry_after_ms reply)
  else begin
    record_success t r.wi;
    (match r.req with
    | Protocol.Submit _ ->
        record_latency t ((Unix.gettimeofday () -. r.started) *. 1000.)
    | Protocol.Hello | Protocol.Stats | Protocol.Shutdown -> ());
    r.phase <- Finished (Ok reply)
  end

(* Transient failures feed the breaker and let the walk fail over.
   Anything else (a version mismatch, a malformed reply) is [`Fatal]: the
   next worker would say the same, and it feeds neither breaker direction —
   the worker answered, so it is not down. *)
let rec fail t r e =
  let stale =
    r.reused
    && match r.conn with Some c -> not (Client.pending_input c) | None -> false
  in
  Option.iter Client.close r.conn;
  r.conn <- None;
  let failure =
    match e with
    | Unix.Unix_error (errno, _, _) when Client.transient_errno errno -> `Unix errno
    | Errors.Error err when Errors.transient err -> `Typed err
    | Sys_error m -> `Sys m
    | e -> `Fatal e
  in
  match failure with
  | `Fatal _ -> r.phase <- Finished (Error failure)
  | `Unix _ | `Typed _ | `Sys _ ->
      if stale then
        (* A kept connection that died before any reply byte (the worker
           restarted, or closed it) says nothing about the worker now: one
           fresh connection, no breaker failure, no failover. *)
        guard t r (fun () -> connect_fresh t r)
      else if retries_left t r then pause t r ~retry_after_ms:None
      else begin
        record_failure t r.wi;
        r.phase <- Finished (Error failure)
      end

(* Every step of a racer goes through here, so no exception escapes a
   race: it becomes the racer's verdict. *)
and guard t r f = try f () with e -> fail t r e

let start t wi req ~pooled =
  let r =
    {
      wi;
      req;
      pooled;
      started = Unix.gettimeofday ();
      claimed = claim_half_open t wi;
      conn = None;
      reused = false;
      attempt = 0;
      phase = Connecting;
    }
  in
  guard t r (fun () -> launch t r);
  r

(* Move [r] on after its descriptor became ready. *)
let advance t r =
  guard t r (fun () ->
      match (r.phase, r.conn) with
      | Connecting, Some c ->
          Client.finish_connect c;
          r.phase <- Greeting
      | Greeting, Some c -> (
          match Client.read_step c with
          | `Line line ->
              Client.greet c line;
              r.phase <- Awaiting;
              Client.send c r.req
          | `More -> ()
          | `Eof -> Errors.fail Errors.No_banner)
      | Awaiting, Some c -> (
          match Client.read_step c with
          | `Line line -> succeed t r (Protocol.reply_of_json (Json.parse line))
          | `More -> ()
          | `Eof when Client.pending_input c ->
              failwith "reply truncated: the worker closed mid-line"
          | `Eof -> Errors.fail (Errors.Connection_closed { during = "the reply" }))
      | Pausing _, _ -> launch t r
      | (Connecting | Greeting | Awaiting | Finished _), _ -> ())

let finished r = match r.phase with Finished _ -> true | _ -> false

(* One [Unix.select] over the racers' descriptors, bounded by [until] and
   by any racer's backoff; then advance every racer that can move.  A
   select that fails (a descriptor past FD_SETSIZE gives EINVAL) fails
   the racers that were waiting on it, so a forward still never raises. *)
let step t racers ~until =
  let reads, writes, wake =
    List.fold_left
      (fun (reads, writes, wake) r ->
        match (r.phase, r.conn) with
        | Connecting, Some c -> (reads, Client.fd c :: writes, wake)
        | (Greeting | Awaiting), Some c -> (Client.fd c :: reads, writes, wake)
        | Pausing at, _ -> (reads, writes, Float.min wake at)
        | _ -> (reads, writes, wake))
      ([], [], until) racers
  in
  let timeout =
    if wake = infinity then -1. else Float.max 0. (wake -. Unix.gettimeofday ())
  in
  let readable, writable =
    match Unix.select reads writes [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    | exception e ->
        List.iter
          (fun r ->
            match r.phase with
            | Connecting | Greeting | Awaiting -> fail t r e
            | Pausing _ | Finished _ -> ())
          racers;
        ([], [])
  in
  let now = Unix.gettimeofday () in
  List.iter
    (fun r ->
      match (r.phase, r.conn) with
      | Connecting, Some c when List.mem (Client.fd c) writable -> advance t r
      | (Greeting | Awaiting), Some c when List.mem (Client.fd c) readable -> advance t r
      | Pausing at, _ when now >= at -> advance t r
      | _ -> ())
    racers

(* An exchange still in flight is closed, never pooled: its late reply can
   never be read as another request's. *)
let abandon t r =
  Option.iter Client.close r.conn;
  r.conn <- None;
  if r.claimed && not (finished r) then release_half_open t r.wi

(* One exchange with worker [w], retries included.  Forwards ([Submit])
   use the worker's kept connections; Hello probes and Stats open their
   own, so a probe still tests the accept path. *)
let try_worker t w req =
  let pooled = match req with Protocol.Submit _ -> true | _ -> false in
  let r = start t w req ~pooled in
  while not (finished r) do
    step t [ r ] ~until:infinity
  done;
  match r.phase with Finished outcome -> outcome | _ -> assert false

(* A non-transient exchange failure becomes the client's structured reply:
   it is deterministic in the job (every worker would say the same), so
   relaying it is as correct as a worker saying it — and the connection
   handler never has to survive an exception. *)
let fatal_reply (job : Protocol.job) e =
  let kind, msg =
    match e with
    | Errors.Error err -> (Errors.kind err, Errors.message err)
    | Failure m -> ("protocol", m)
    | e -> ("internal", Printexc.to_string e)
  in
  Protocol.error ~id:job.Protocol.id ~kind msg

(* Race the owner against the next candidate on the calling thread: the
   primary goes out now, the hedge once [delay_ms] passes without a
   primary verdict — or at once if the primary fails first (then it is
   ordinary failover, not a hedge).  First Ok wins.  Backpressure or a
   fatal verdict from the primary ends the race (hedging must not pile
   load onto an overloaded fleet, and the hedge could only repeat a
   deterministic failure); from the hedge they are only fallbacks, since
   the owner may still answer.  The loser is abandoned: at most one
   wasted worker computation, idempotent by construction. *)
let hedged_pair t job w1 w2 delay_ms =
  let req = Protocol.Submit job in
  let deadline = Unix.gettimeofday () +. (delay_ms /. 1000.) in
  let primary = start t w1 req ~pooled:true in
  let hedge = ref None in
  let first_ok = ref None and backpressure = ref None and fatal = ref None in
  let primary_failed = ref false in
  (* Record a finished racer's verdict; [true] when it ends the race. *)
  let take ~hedged = function
    | Ok reply when is_backpressure reply ->
        if (not hedged) || !backpressure = None then backpressure := Some reply;
        not hedged
    | Ok reply ->
        first_ok := Some (reply, hedged);
        true
    | Error (`Fatal e) ->
        if !fatal = None then fatal := Some e;
        not hedged
    | Error (`Unix _ | `Typed _ | `Sys _) ->
        if not hedged then primary_failed := true;
        false
  in
  let seen_primary = ref false and seen_hedge = ref false in
  let verdict r seen ~hedged =
    match r.phase with
    | Finished outcome when not !seen ->
        seen := true;
        take ~hedged outcome
    | _ -> false
  in
  let verdicts () =
    verdict primary seen_primary ~hedged:false
    || Option.fold ~none:false ~some:(fun h -> verdict h seen_hedge ~hedged:true) !hedge
  in
  let rec race () =
    if not (verdicts ()) then begin
      if !hedge = None && (!primary_failed || Unix.gettimeofday () >= deadline)
      then begin
        Metrics.incr
          (if !primary_failed then Metrics.router_failovers else Metrics.router_hedges);
        hedge := Some (start t w2 req ~pooled:true)
      end;
      match List.filter (fun r -> not (finished r)) (primary :: Option.to_list !hedge) with
      | [] -> ignore (verdicts ()) (* a hedge that finished as it started *)
      | live ->
          step t live ~until:(if !hedge = None then deadline else infinity);
          race ()
    end
  in
  race ();
  abandon t primary;
  Option.iter (abandon t) !hedge;
  match !first_ok with
  | Some (reply, hedged) ->
      if hedged && not !primary_failed then
        Metrics.incr Metrics.router_hedge_wins;
      Some reply
  | None -> (
      match !backpressure with
      | Some _ as bp -> bp
      | None -> Option.map (fatal_reply job) !fatal)

let no_worker_reply (job : Protocol.job) =
  (* Every candidate failed: a structured error, so one dead fleet never
     crashes the router's connection handler. *)
  Protocol.error ~id:job.Protocol.id ~kind:"connection"
    "router: no worker reachable for this job"

let forward t (job : Protocol.job) =
  Metrics.incr Metrics.router_requests;
  let order = route t (job_key job) in
  let candidates =
    match List.filter (admits t) order with [] -> order | live -> live
  in
  let rec walk first = function
    | [] -> no_worker_reply job
    | w :: rest -> (
        if not first then Metrics.incr Metrics.router_failovers;
        match try_worker t w (Protocol.Submit job) with
        | Ok reply -> reply
        | Error (`Fatal e) ->
            (* Non-transient: the next worker would only say the same
               thing, so answer now instead of walking (and misreporting
               a deterministic failure as "no worker reachable"). *)
            fatal_reply job e
        | Error _ -> walk false rest)
  in
  match (t.hedge, candidates) with
  | Some _, w1 :: w2 :: rest -> (
      match hedged_pair t job w1 w2 (hedge_delay_ms t) with
      | Some reply -> reply
      | None -> walk false rest)
  | _, _ -> walk true candidates

(* --- health probing --- *)

(* One Hello probe, authoritative either way: success closes the breaker,
   failure trips it open on the spot. *)
let probe t wi =
  Metrics.incr Metrics.router_health_checks;
  with_lock t (fun () ->
      let w = t.workers.(wi) in
      w.probes <- w.probes + 1);
  match try_worker t wi Protocol.Hello with
  | Ok _ -> ()
  | Error _ -> trip t wi

let health_check t = Array.iteri (fun wi _ -> probe t wi) t.workers

(* The paced prober: closed workers re-probe every interval, open workers
   only once their (exponentially growing) cooldown has passed — a worker
   that stays down costs ever fewer probes, one that comes back is noticed
   within its current cooldown.  Jitter keeps a fleet of routers from
   probing in lockstep while staying a pure function of (worker, probe
   count). *)
let probe_due ?now ~interval_ms t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  Array.iteri
    (fun wi _ ->
      let due, salt, probes =
        with_lock t (fun () ->
            let w = t.workers.(wi) in
            let ready =
              now >= w.next_probe
              &&
              match w.state with
              | Closed -> true
              | Open { until } -> now >= until
              | Half_open { since } ->
                  (* A half-open probe that never reported back (its
                     thread died mid-flight) must not wedge the breaker:
                     after a cooldown's grace the prober takes over. *)
                  now >= since +. cooldown_s t w
            in
            (ready, wi, w.probes))
      in
      if due then begin
        with_lock t (fun () ->
            t.workers.(wi).next_probe <-
              now
              +. float_of_int interval_ms /. 1000. *. probe_jitter ~salt probes);
        probe t wi
      end)
    t.workers

let stats_json t =
  let per_worker =
    Array.to_list
      (Array.mapi
         (fun w (worker : worker) ->
           let view = breaker_state t w in
           let failures, streak, idle, reuses, connects =
             with_lock t (fun () ->
                 let w = t.workers.(w) in
                 (w.failures, w.streak, List.length w.idle, w.reuses, w.connects))
           in
           let inum i = Json.Num (float_of_int i) in
           let base =
             [
               ("addr", Json.Str (Transport.to_string worker.addr));
               ("alive", Json.Bool (view = `Closed));
               ("breaker", Json.Str (breaker_label view));
               ("failures", inum failures);
               ("opens_streak", inum streak);
               ( "pool",
                 Json.Obj
                   [ ("idle", inum idle); ("reuses", inum reuses); ("connects", inum connects) ] );
             ]
           in
           match try_worker t w Protocol.Stats with
           | Ok reply when reply.Protocol.status = Protocol.Ok ->
               Json.Obj (base @ [ ("stats", reply.Protocol.body) ])
           | Ok _ | Error _ -> Json.Obj base)
         t.workers)
  in
  Json.Obj
    [
      ("version", Json.Str Version.version);
      ("role", Json.Str "router");
      ("replicas", Json.Num (float_of_int t.replicas));
      ("hedging", Json.Bool (t.hedge <> None));
      ( "hedge_delay_ms",
        match t.hedge with
        | None -> Json.Null
        | Some _ -> Json.Num (hedge_delay_ms t) );
      ("workers", Json.Arr per_worker);
    ]

(* --- the front-end server: same accept-loop shape as {!Daemon} --- *)

type server = {
  router : t;
  listeners : (Transport.address * Unix.file_descr) list;
  health_interval_ms : int;
  lock : Mutex.t;
  mutable stop : bool;
  mutable conns : (Unix.file_descr * Thread.t) list;
}

let create_server ?(backlog = 16) ?(health_interval_ms = 1000) ~listen router =
  if listen = [] then invalid_arg "Router.create_server: no listen addresses";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listeners =
    let rec bind_all acc = function
      | [] -> List.rev acc
      | addr :: rest -> (
          match Transport.listen ~backlog addr with
          | fd -> bind_all ((Transport.bound_address addr fd, fd) :: acc) rest
          | exception e ->
              List.iter (fun (a, fd) -> Transport.close_listener a fd) acc;
              raise e)
    in
    bind_all [] listen
  in
  {
    router;
    listeners;
    health_interval_ms;
    lock = Mutex.create ();
    stop = false;
    conns = [];
  }

let server_addresses s = List.map fst s.listeners

let request_stop s =
  Mutex.lock s.lock;
  s.stop <- true;
  Mutex.unlock s.lock

let stopping s =
  Mutex.lock s.lock;
  let v = s.stop in
  Mutex.unlock s.lock;
  v

let handle_request s = function
  | Protocol.Hello -> Protocol.ok (Protocol.hello_banner ())
  | Protocol.Stats -> Protocol.ok (stats_json s.router)
  | Protocol.Shutdown ->
      request_stop s;
      Protocol.ok (Json.Obj [ ("shutting_down", Json.Bool true) ])
  | Protocol.Submit job -> forward s.router job

let handle_conn s fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send json =
    output_string oc (Json.to_string json);
    output_char oc '\n';
    flush oc
  in
  let serve_line line =
    let reply =
      match Protocol.request_of_json (Json.parse line) with
      | exception Failure m -> Protocol.error ~kind:"protocol" m
      | request -> handle_request s request
    in
    send (Protocol.reply_to_json reply)
  in
  (try
     send (Protocol.hello_banner ());
     let rec loop () =
       match input_line ic with
       | exception End_of_file -> ()
       | line ->
           if String.trim line <> "" then serve_line line;
           loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve s =
  (* Health probing on its own thread, so a slow worker never delays
     accepts; the 0.2 s tick only *considers* probing — [probe_due] sends
     a Hello when a worker's own schedule (interval for closed breakers,
     backed-off cooldown for open ones) says it is time. *)
  let prober =
    Thread.create
      (fun () ->
        while not (stopping s) do
          probe_due ~interval_ms:s.health_interval_ms s.router;
          sleepf 0.2
        done)
      ()
  in
  let socks = List.map snd s.listeners in
  let rec accept_loop () =
    if not (stopping s) then begin
      (match Unix.select socks [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | ready, _, _ ->
          List.iter
            (fun sock ->
              match Unix.accept sock with
              | fd, _ ->
                  let th = Thread.create (handle_conn s) fd in
                  Mutex.lock s.lock;
                  s.conns <- (fd, th) :: s.conns;
                  Mutex.unlock s.lock
              | exception Unix.Unix_error _ -> ())
            ready);
      accept_loop ()
    end
  in
  accept_loop ();
  List.iter (fun (addr, fd) -> Transport.close_listener addr fd) s.listeners;
  Mutex.lock s.lock;
  let conns = s.conns in
  s.conns <- [];
  Mutex.unlock s.lock;
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, th) -> Thread.join th) conns;
  Thread.join prober
