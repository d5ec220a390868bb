(** Consistent-hash front router: one address for a fleet of serve
    daemons ([symref router], and the front half of [symref fleet]).

    Jobs hash by their request {e spelling} (netlist text or path,
    analysis, io, sigma, r) onto a virtual-node ring — identical requests
    always reach the same worker, keeping each worker's result cache
    effective, and resizing the fleet only remaps the keys whose virtual
    nodes moved.

    {b Circuit breakers.}  Each worker carries a breaker: [`Closed]
    (healthy) opens after [threshold] consecutive forward failures — or
    immediately when the background prober's Hello goes unanswered — and
    an open breaker refuses traffic for a cooldown that doubles on every
    re-open (capped).  Once the cooldown passes, the first request (or
    probe) through becomes the single {e half-open} trial: success closes
    the breaker, failure re-opens it for longer.  The marks stay
    advisory: when every candidate's breaker refuses, {!forward} tries
    them all anyway, so a stale mark degrades to latency, never an
    outage.  Transitions count in [router.breaker_open] /
    [router.breaker_half_open] / [router.breaker_close].

    {b Kept connections.}  Forwards take a connection from the worker's
    idle list (opening one when it is empty) and return it once the
    reply is read, so a cache hit costs one exchange and no connect.  A
    failure on a reused connection before any reply byte arrives is
    retried once on a fresh connection, counting neither a breaker
    failure nor a failover.  A worker's idle connections are closed when
    its breaker opens.  Hello probes and [Stats] use connections of
    their own.  Counted in [router.pool_reuses] /
    [router.pool_connects].

    {b Hedged requests.}  When the key's owner has not answered after a
    delay derived from recent forward latencies (the configured
    percentile, clamped into [[after_ms_min, after_ms_max]]), the job is
    re-issued to the next ring candidate and the first reply wins.  The
    race runs on the calling thread, one [Unix.select] over the two
    connections; the loser's connection is closed, never pooled.
    Workers are deterministic and idempotent, so a duplicated job can
    only waste time, never change bytes.  Hedges and hedge wins count in
    [router.hedges] / [router.hedge_wins].

    The router holds no job state and never parses a netlist.  It
    decodes each reply and encodes it again; printer output re-prints
    as the same bytes, so an answer through the router is identical to
    one straight from the worker. *)

type t

type breaker_view = [ `Closed | `Open | `Half_open ]

type breaker_config = {
  threshold : int;
      (** Consecutive forward failures that open a closed breaker. *)
  cooldown_ms : float;
      (** First open interval; doubles on every re-open without an
          intervening close. *)
  max_cooldown_ms : float;  (** Cap on the doubled cooldown. *)
}

val default_breaker : breaker_config
(** [{threshold = 3; cooldown_ms = 250.; max_cooldown_ms = 10_000.}] *)

type hedge_config = {
  after_ms_min : float;  (** Floor on the hedge delay. *)
  after_ms_max : float;
      (** Ceiling on the hedge delay; also the delay used before any
          latency samples exist. *)
  percentile : float;
      (** Which recent-latency percentile derives the delay (e.g. 0.99). *)
}

val default_hedge : hedge_config
(** [{after_ms_min = 25.; after_ms_max = 500.; percentile = 0.99}] *)

val create :
  ?replicas:int ->
  ?backoff:Client.backoff ->
  ?breaker:breaker_config ->
  ?hedge:hedge_config option ->
  Transport.address list ->
  t
(** [create addrs] builds the ring with [replicas] (default 64) virtual
    nodes per worker.  [backoff] shapes each forwarding attempt (default:
    2 attempts, 10 ms base — fail over fast rather than out-wait a dead
    worker).  [breaker] tunes the per-worker circuit breakers; [hedge]
    configures request hedging (default {!default_hedge}; pass [None] to
    disable).  @raise Invalid_argument on an empty worker list,
    [replicas < 1] or [threshold < 1].  Sets [SIGPIPE] to ignored, so a
    write on a kept connection to a dead worker fails with [EPIPE]. *)

val workers : t -> Transport.address list

val job_key : Protocol.job -> string
(** The routing key: {!Protocol.spelling_key}, MD5 hex over the job's
    value-relevant spelling.  Deterministic and cheap — no parsing, no
    canonicalisation. *)

val owner : t -> string -> Transport.address
(** The worker a key hashes to (ignoring health). *)

val route : t -> string -> int list
(** Worker indices in ring walk order from the key's owner, each distinct
    worker once — the failover sequence [forward] follows. *)

val forward : t -> Protocol.job -> Protocol.reply
(** Submit through the ring: the owner first (hedged against the next
    candidate when hedging is on), then failover.  Transient failures
    (connection refused/reset/dropped, no banner) feed the worker's
    breaker and move on; non-transient failures (version mismatch, bad
    spec, malformed reply) are deterministic in the job and end the walk
    with a structured reply of the matching kind — [forward] never
    raises.  When no worker is reachable the reply is a structured
    [connection] error. *)

val breaker_state : t -> int -> breaker_view
(** The breaker of worker index [w] (as listed by {!workers}), now. *)

val hedge_delay_ms : t -> float
(** The delay {!forward} would hedge after right now: the configured
    percentile of recent forward latencies, clamped — or [infinity] when
    hedging is disabled. *)

val health_check : t -> unit
(** Probe every worker with Hello once, unconditionally.  The prober is
    authoritative: success closes the breaker, failure trips it open on
    the spot ([router.health_checks] / [router.dead_workers]). *)

val probe_due : ?now:float -> interval_ms:int -> t -> unit
(** Probe only the workers whose schedule says it is time: closed
    breakers every [interval_ms], open breakers once their (exponentially
    backed-off) cooldown passes, each stretched by {!probe_jitter}.  The
    background prober {!serve} runs calls this a few times a second. *)

val probe_jitter : salt:int -> int -> float
(** [probe_jitter ~salt n] is a deterministic stretch factor in
    [[0.8, 1.2)] for probe [n] of worker [salt] — a pure function, so a
    replayed schedule is identical while distinct workers never probe in
    lockstep. *)

val stats_json : t -> Symref_obs.Json.t
(** Fleet-wide stats: ring and hedge parameters plus, per worker, its
    address, breaker state (and the derived [alive] flag: breaker
    closed), consecutive-failure count, connection [pool] ([idle] now,
    [reuses] and [connects] so far) and — when reachable — its own
    stats reply. *)

(** {1 Front-end server}

    The accept loop that makes the router a drop-in daemon: same NDJSON
    protocol, same banner, [Submit] forwarded to the fleet, [Stats]
    answered with {!stats_json}, [Shutdown] stopping the router (workers
    are administered separately). *)

type server

val create_server :
  ?backlog:int ->
  ?health_interval_ms:int ->
  listen:Transport.address list ->
  t ->
  server
(** Bind the front listeners (default backlog 16).  [health_interval_ms]
    (default 1000) paces the background prober {!serve} runs.
    @raise Unix.Unix_error when binding fails, [Invalid_argument] when
    [listen] is empty. *)

val server_addresses : server -> Transport.address list
(** Bound addresses, ephemeral TCP ports resolved. *)

val serve : server -> unit
(** Run the accept loop and the health prober until a [shutdown] request
    or {!request_stop}; listeners are closed and every connection joined
    before this returns. *)

val request_stop : server -> unit
(** Ask {!serve} to wind down; safe from any thread. *)
