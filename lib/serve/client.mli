(** Blocking client for the serve protocol — what [symref submit] and the
    CI round-trip test speak through.

    One request, one reply, in order, on a single connection.  Connection
    failures raise [Unix.Unix_error]; protocol-level failures (no banner,
    connection closed mid-exchange) raise the typed {!Errors.Error};
    malformed JSON from the server raises [Failure].

    {!retry_request} wraps the one-shot path in a retry loop with capped
    exponential backoff for [Busy] backpressure replies and transient
    connection failures (see [doc/robustness.mld]). *)

type t

val connect : addr:Transport.address -> t
(** Connect (Unix socket or TCP, see {!Transport.parse}) and consume the
    daemon's hello banner, checking its advertised protocol version.
    @raise Errors.Error [No_banner] when the connection closes first,
    [Version_mismatch] when the banner's [protocol] field is missing or
    outside [[{!Protocol.min_protocol_version},
    {!Protocol.protocol_version}]] — older compatible peers are accepted
    so a rolling restart never needs a flag day. *)

val banner : t -> Symref_obs.Json.t
(** The greeting the daemon sent on connect
    ([{"hello":"symref";"version";...}]). *)

val request : t -> Protocol.request -> Protocol.reply
(** Send one request line and block for its reply line.
    @raise Errors.Error [Connection_closed] when the connection drops
    before the reply. *)

val close : t -> unit

val with_connection : addr:Transport.address -> (t -> 'a) -> 'a
(** Connect, run, close (also on exceptions). *)

(** {1 Step by step}

    The same exchange split at every wait, for a caller that drives
    several connections from one [Unix.select] (the router's hedged
    forwards): {!start_connect}, wait writable, {!finish_connect}; wait
    readable, {!read_step} until the banner line, {!greet}; {!send}; wait
    readable, {!read_step} until the reply line.  A connection whose
    reply has been read in full can carry the next request. *)

val start_connect : addr:Transport.address -> t * bool
(** {!Transport.connect_start} on a fresh connection; [true] when already
    established. *)

val finish_connect : t -> unit
(** {!Transport.connect_finish}.  @raise Unix.Unix_error with the
    connect's error. *)

val fd : t -> Unix.file_descr
(** The descriptor to wait on. *)

val read_step : t -> [ `Line of string | `More | `Eof ]
(** At most one [read]: the next complete line if one has arrived,
    [`More] if it is still partial, [`Eof] when the peer closed. *)

val pending_input : t -> bool
(** Bytes have arrived toward a line not yet returned. *)

val greet : t -> string -> unit
(** Parse and check a banner line, as {!connect} does.
    @raise Errors.Error [Version_mismatch], [Failure] on malformed JSON. *)

val send : t -> Protocol.request -> unit
(** Write one request line (blocking). *)

(** {1 Retry with capped exponential backoff} *)

type backoff = {
  attempts : int;  (** total attempts (initial try included), [>= 1] *)
  base_delay_ms : float;  (** delay before the second attempt *)
  multiplier : float;  (** geometric growth per attempt *)
  max_delay_ms : float;  (** delay ceiling *)
  jitter : float;
      (** relative jitter width: the delay is scaled by a deterministic
          factor in [1 ± jitter/2] *)
  seed : int;  (** jitter seed — same seed, same schedule *)
}

val default_backoff : backoff
(** 5 attempts, 25 ms base, doubling, 1 s cap, 20% jitter, seed 0 —
    worst case ≈ 0.4 s of waiting. *)

val transient_errno : Unix.error -> bool
(** The connection-level errnos a fresh attempt can plausibly outlive
    ([ECONNREFUSED], [ECONNRESET], [EPIPE], [ENOENT], [EAGAIN]) — shared
    with {!Router.forward}'s failover classification. *)

val backoff_schedule : backoff -> float array
(** The exact delays (ms) slept after attempts [0 .. attempts-2]:
    [min max_delay (base * multiplier^n)] scaled by the deterministic
    jitter factor.  Pure — tests assert against it. *)

val delay_after : backoff -> attempt:int -> retry_after_ms:float option -> float
(** The delay (ms) actually slept after [attempt]: with a server-provided
    [retry_after_ms] hint (a [Busy]/[Overloaded] reply), the hint — floored
    at 1 ms, capped at [max_delay_ms], scaled by the same deterministic
    jitter factor as {!backoff_schedule}; without one, the fixed schedule's
    entry.  Pure — tests assert against it. *)

val retry_request :
  ?backoff:backoff ->
  ?sleep:(float -> unit) ->
  addr:Transport.address ->
  Protocol.request ->
  Protocol.reply
(** One logical request with retries: each attempt opens a fresh
    connection, sends [req] and reads the reply.  A [Busy] or [Overloaded]
    reply (backpressure) or a transient failure — [ECONNREFUSED],
    [ECONNRESET], [EPIPE], [ENOENT], [EAGAIN], a dropped connection, a
    missing banner — sleeps {!delay_after} (the server's [retry_after_ms]
    hint when the reply carried one, the fixed schedule otherwise) and
    tries again; each retry counts in the [serve.client_retries] metric.
    When the attempt budget runs out the final backpressure reply is
    returned as-is (structured give-up), and a final transient failure
    re-raises.  Non-transient failures propagate immediately.  [sleep]
    (default [Unix.sleepf] of ms) is injectable so tests run instantly. *)
