(** The serve wire protocol: newline-delimited JSON over a Unix domain
    socket.

    One request per line, one reply per line, in order; the JSON itself is
    {!Symref_obs.Json}'s compact single-line rendering, so embedded netlist
    text rides inside a JSON string with escaped newlines.  The codec is
    pure (no I/O) and total in both directions: [request_of_json] and
    [reply_of_json] raise [Failure] with a human-readable message on
    malformed input, which the daemon turns into a structured [`Error]
    reply instead of dying.

    See [doc/serve.mld] for the message reference. *)

module Json = Symref_obs.Json

val protocol_version : int
(** The protocol this build speaks; carried by the hello banner.  Bumped
    on every wire change — but additive changes keep
    {!min_protocol_version} where it was, so mixed-version fleets keep
    talking during a rolling restart. *)

val min_protocol_version : int
(** Oldest peer protocol this build still accepts: every version in
    [[min_protocol_version, protocol_version]] differs from ours only by
    additions (new statuses, optional fields) we can ignore or they will.
    {!Client.connect} refuses banners outside the range. *)

(** {1 Analyses} *)

type analysis =
  | Reference  (** network-function coefficients, default config *)
  | Adaptive  (** coefficients plus the per-pass band reports *)
  | Bode of { from_hz : float; to_hz : float; per_decade : int }
      (** Bode data reconstructed from the reference coefficients *)
  | Poles  (** pole/zero extraction from the references *)
  | Simplify of {
      budget_db : float;
      budget_deg : float;
      from_hz : float;
      to_hz : float;
      per_decade : int;
    }
      (** reference-driven symbolic simplification under an error budget,
          verified over the [from_hz..to_hz] grid; the reply carries the
          simplified expressions plus an error certificate *)

val analysis_to_string : analysis -> string
(** Canonical text form, also used in cache keys ([reference], [adaptive],
    [bode(1,1e8,4)], [poles], [simplify(0.5,2,1,1e8,4)]). *)

(** {1 Requests} *)

type job = {
  id : string option;  (** echoed verbatim in the reply *)
  netlist : [ `Text of string | `Path of string ];
      (** inline netlist text, or a path resolved on the daemon's side *)
  analysis : analysis;
  input : string;  (** CLI input syntax, e.g. [v1], [diff:inp,inn]; [auto] *)
  output : string option;  (** node (or [P,M]); [None] = auto-detect *)
  sigma : int;
  r : float;
  timeout_ms : int option;  (** wall-clock budget; [Some 0] expires at once *)
}

val default_job : job
(** [Reference] analysis of [`Text ""], input [auto], everything else at
    the CLI defaults — the base the decoder fills in. *)

val spelling_key : job -> string
(** MD5 hex over the job's spelling: netlist text or path, analysis,
    input, output, [sigma] and [r].  No parsing, so formatting variants of
    one circuit get different keys.  The router places jobs on its ring by
    this key ({!Router.job_key}) and a worker maps it to the canonical
    cache key of a [`Text] job it has answered ({!Cache.find_alias}). *)

type request =
  | Hello  (** capability/version exchange *)
  | Stats  (** counter snapshot + cache and scheduler gauges *)
  | Submit of job
  | Shutdown  (** graceful: drain in-flight jobs, then exit *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> request
(** @raise Failure on an unknown [op] or ill-typed fields. *)

(** {1 Replies} *)

type status =
  | Ok
  | Error  (** structured failure: parse error, unsupported circuit, ... *)
  | Timeout  (** the job's wall-clock deadline expired *)
  | Busy  (** backpressure: the daemon is shutting down, retry elsewhere *)
  | Overloaded
      (** load shed: admission control refused the job (queue full, or the
          estimated wait already exceeds the deadline); the error body
          carries [retry_after_ms] *)

val status_to_string : status -> string

type reply = {
  reply_id : string option;
  status : status;
  cached : bool;  (** [true] when served from the result cache *)
  version : string;  (** the daemon's {!Version.version} *)
  body : Json.t;
      (** [status = Ok]: the analysis payload (or hello/stats object);
          otherwise an error object [{kind; message}] *)
}

val ok : ?id:string option -> ?cached:bool -> Json.t -> reply
val error : ?id:string option -> ?status:status -> kind:string -> string -> reply
(** [error ~kind msg] builds a structured failure reply ([status] defaults
    to [Error]). *)

val overloaded : ?id:string option -> retry_after_ms:float -> string -> reply
(** The typed load-shed reply: status [Overloaded], error kind
    [overloaded], and a [retry_after_ms] hint in the body — the estimated
    time until the shedding queue has drained enough to admit the job. *)

val retry_after_ms : reply -> float option
(** The [retry_after_ms] hint of a [Busy] or [Overloaded] reply, if the
    server provided one; [None] on every other status. *)

val reply_to_json : reply -> Json.t
val reply_of_json : Json.t -> reply
(** @raise Failure on ill-typed fields. *)

val hello_banner : unit -> Json.t
(** The one-line greeting the daemon writes on connect:
    [{"hello":"symref","version":...,"protocol":N}]. *)

val error_kind : reply -> string option
val error_message : reply -> string option
