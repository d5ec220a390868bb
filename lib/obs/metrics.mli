(** Process-wide, domain-safe counters and histograms for the reference
    pipeline.

    Disabled by default.  While disabled every update is a single non-atomic
    boolean load and a branch — no allocation, no atomic traffic — so
    instrumentation can live on hot paths without measurable cost.  While
    enabled, updates are [Atomic] operations and therefore exact under
    multi-domain interpolation ({!Symref_core.Interp.run}[ ~domains]).

    The fixed catalogue at the bottom is the single source of truth for the
    pipeline's counter names; {!Snapshot} dumps exactly these. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered counter and histogram. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Register a new counter.  Call at module-initialisation time only. *)

val incr : counter -> unit
(** No-op while disabled. *)

val add : counter -> int -> unit
(** No-op while disabled. *)

val value : counter -> int
val name : counter -> string

val all : unit -> (string * int) list
(** Every registered counter with its current value, in registration
    order. *)

(** {1 Histograms}

    Power-of-two buckets: bucket [0] collects observations [<= 1], bucket
    [i] observations in [(2^(i-1), 2^i]].  Fixed depth, so {!observe} never
    allocates. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit
val histogram_name : histogram -> string

val histogram_buckets_of : histogram -> (int * int) list
(** [(bucket upper bound, count)] for every non-empty bucket, ascending. *)

val all_histograms : unit -> (string * (int * int) list) list

(** {1 The pipeline's counter catalogue} *)

val lu_factor : counter
(** Full Markowitz factorisations ({!Symref_linalg.Sparse.factor}). *)

val lu_symbolic : counter
(** Symbolic (pattern-recording) factorisations
    ({!Symref_linalg.Sparse.symbolic}). *)

val lu_refactor : counter
(** Successful numeric replays ({!Symref_linalg.Sparse.refactor}). *)

val refactor_fallbacks : counter
(** Refactor attempts rejected by the threshold-pivoting floor (the caller
    fell back to a full factorisation). *)

(** {2 The kernel family}

    The fused unboxed refactor+solve engine ({!Symref_linalg.Kernel}).
    Kernel-served points are {e also} counted under
    [lu.refactor]/[lu.refactor_fallback] — the kernel {e is} the numeric
    refactorisation, fused — so the lu.* invariants are engine-agnostic. *)

val kernel_points : counter
(** Evaluation points served by the fused kernel (elimination + solve on
    flat workspaces, no boxed factor). *)

val kernel_fallbacks : counter
(** Kernel runs that bailed (threshold floor, non-finite pivot or injected
    singularity) back to the boxed path. *)

val kernel_workspaces : counter
(** Workspaces allocated — one per (pattern, domain) in the steady state,
    per-point and batched alike. *)

val kernel_batch_points : counter
(** Evaluation points served by the batched structure-of-arrays engine
    ({!Symref_linalg.Kernel.Batch}) — counted {e instead of}
    [kernel.points], so the two engines stay distinguishable; batch-served
    points still count under [lu.refactor]. *)

val kernel_batch_ejects : counter
(** Points ejected from a batch to the boxed per-point fallback (threshold
    floor, non-finite pivot, or injected singularity).  An ejected point is
    counted here and under [kernel.fallback] exactly once — it goes
    straight to the boxed full factorisation, never through the per-point
    kernel, so the two counters cannot double-count one point. *)

val evaluator_calls : counter
(** {!Symref_core.Evaluator} [eval] calls — the paper's cost metric. *)

val memo_hits : counter
(** Shared num/den evaluator: evaluations served from the memo table. *)

val memo_misses : counter
(** Shared num/den evaluator: evaluations that performed a factorisation. *)

val pattern_hits : counter
(** Factorisation-pattern reuses ({!Symref_mna.Nodal}): the same scale pair
    again, or the current pattern carried to a new scale pair. *)

val pattern_misses : counter
(** Patterns (re)learned by a symbolic analysis. *)

val adaptive_passes : counter
(** Interpolation passes executed by {!Symref_core.Adaptive.run}. *)

val dry_passes : counter
(** Passes that established no new coefficient. *)

val deflated_passes : counter
(** Passes that subtracted known coefficients before interpolating
    (eq. 17 problem reduction). *)

val points_evaluated : counter
(** LU evaluation points across all interpolation batches. *)

val points_per_pass : histogram
(** Distribution of evaluation points per interpolation batch. *)

(** {2 The guard family}

    Graceful degradation inside {!Symref_core.Interp.run}: evaluations that
    come back singular (zero) or non-finite are retried at slightly
    perturbed unit-circle points instead of aborting the pass. *)

val guard_singular_retries : counter
(** Singular (zero) evaluations retried at a perturbed point. *)

val guard_nonfinite_retries : counter
(** Non-finite evaluations retried at a perturbed point. *)

val guard_retry_giveups : counter
(** Points whose retry budget ran out (the original value was kept). *)

(** {2 The serve family}

    Result cache and job scheduler of the [Symref_serve] service (daemon
    and in-process batch sweeps alike). *)

val serve_cache_hits : counter
(** Jobs answered from the content-addressed result cache. *)

val serve_cache_misses : counter
(** Cache lookups that had to run the analysis. *)

val serve_cache_evictions : counter
(** Entries evicted by the cache's byte budget (LRU order). *)

val serve_jobs_submitted : counter
(** Jobs accepted by the scheduler (admitted past the queue bound). *)

val serve_jobs_completed : counter
(** Jobs that finished with a successful reply (cached or computed). *)

val serve_jobs_failed : counter
(** Jobs that finished with a structured error reply. *)

val serve_jobs_timeout : counter
(** Jobs cancelled by their wall-clock deadline. *)

val serve_jobs_rejected : counter
(** Submissions refused with a backpressure reply (queue full). *)

val serve_client_retries : counter
(** Client-side request retries (busy replies and transient socket
    failures, see {!Symref_serve.Client}). *)

val serve_cache_bytes : counter
(** Live byte footprint of the in-memory result cache — maintained with
    signed deltas on insert/evict/clear, so it is a gauge: its value is the
    current level, not a monotone total. *)

val serve_disk_cache_hits : counter
(** Jobs answered from the persistent on-disk cache layer (an in-memory
    miss that a previous process — or life — of the fleet had computed). *)

val serve_disk_cache_misses : counter
(** On-disk lookups that found no (valid) entry. *)

val serve_disk_cache_writes : counter
(** Payloads persisted to the on-disk cache (atomic tmp + rename). *)

val serve_disk_cache_corrupt : counter
(** On-disk entries rejected by the checksum header (truncated or
    corrupted files are skipped, never fatal). *)

(** {2 The router family}

    The consistent-hash front router ({!Symref_serve.Router} /
    [symref router]). *)

val router_requests : counter
(** Requests forwarded to a worker. *)

val router_failovers : counter
(** Requests re-routed to the next worker on the ring after a failure. *)

val router_health_checks : counter
(** Hello health probes sent to workers. *)

val router_dead_workers : counter
(** Health transitions from alive to dead (the breaker opening). *)

(** {2 The resilience family}

    Overload shedding, hedged requests, circuit breakers and the fleet
    supervisor (see [doc/robustness.mld], "Fleet resilience"). *)

val serve_shed_jobs : counter
(** Submissions shed by admission control: the wait queue was full, or the
    estimated queue wait already exceeded the job's deadline.  Shed jobs get
    a typed [overloaded] reply carrying [retry_after_ms]. *)

val serve_evicted_jobs : counter
(** Queued jobs evicted at dequeue because their deadline passed while they
    waited.  Also counted under [serve.shed_jobs]. *)

val serve_disk_cache_scrubbed : counter
(** Orphaned [.tmp.*] staging files removed when the on-disk cache
    directory was opened — debris of a writer that crashed mid-store. *)

val router_hedges : counter
(** Forwards that issued a hedge request to the next ring candidate after
    the deterministic p99-derived delay. *)

val router_hedge_wins : counter
(** Hedged forwards where the hedge replied first (the primary was
    abandoned). *)

val router_breaker_opens : counter
(** Circuit-breaker transitions closed/half-open → open (consecutive
    failures reached the threshold, or the half-open probe failed). *)

val router_breaker_half_opens : counter
(** Breaker transitions open → half-open (cooldown elapsed; one probe
    request is let through). *)

val router_breaker_closes : counter
(** Breaker transitions half-open/open → closed (a request or probe
    succeeded). *)

val fleet_restarts : counter
(** Worker processes restarted by the supervisor after a crash. *)

val fleet_giveups : counter
(** Worker slots the supervisor stopped restarting because the crash-loop
    budget was exhausted. *)

(** {2 The simplify family}

    The reference-driven simplification pipeline
    ([Symref_simplify.Pipeline]). *)

val simplify_requests : counter
(** Pipeline runs started. *)

val simplify_retries : counter
(** Tightened SDG/SAG re-runs after a failed verification sweep. *)

val simplify_fallbacks : counter
(** Runs that ended on the exact pruned expression (no term dropping). *)

val simplify_unsupported : counter
(** Runs rejected because the pruned circuit stays above the symbolic
    dimension limit. *)

val simplify_removed_elements : counter
(** Circuit elements removed by the SBG stage. *)

val simplify_removed_terms : counter
(** Symbolic terms removed by the SDG and SAG stages. *)
