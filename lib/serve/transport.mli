(** Transport addressing for the serve protocol: the NDJSON exchange is
    byte-identical over a Unix-domain socket and a TCP connection; only the
    endpoint differs.  Every CLI flag and config entry that names an
    endpoint goes through {!parse}, so [/run/symref.sock] and
    [127.0.0.1:7070] are interchangeable everywhere. *)

type address =
  | Unix_sock of string  (** filesystem path of a Unix-domain socket *)
  | Tcp of { host : string; port : int }

val parse : string -> address
(** [parse spec] reads [host:port] (numeric port; empty host means
    [127.0.0.1]) as {!Tcp} and anything else — in particular anything
    containing a [/] — as a {!Unix_sock} path.  Total: never raises. *)

val to_string : address -> string
(** Inverse of {!parse} on its own output. *)

val sockaddr : address -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr]; TCP hostnames go through
    [Unix.gethostbyname] when not already numeric.
    @raise Failure when the hostname does not resolve. *)

val connect : address -> Unix.file_descr
(** Open a stream connection; the descriptor is closed again if the
    connect itself fails.  @raise Unix.Unix_error on failure. *)

val connect_start : address -> Unix.file_descr * bool
(** Begin a connect without blocking.  [true]: the connection is
    established and the descriptor is in blocking mode.  [false]: the
    connect is in flight; wait until the descriptor is writable, then call
    {!connect_finish}.  @raise Unix.Unix_error when the connect fails at
    once (the descriptor is closed); a Unix socket whose listen queue is
    full fails with [EAGAIN] here instead of waiting. *)

val connect_finish : Unix.file_descr -> unit
(** Complete a connect begun by {!connect_start} once the descriptor is
    writable: switch it to blocking mode.  @raise Unix.Unix_error with the
    connect's error. *)

val listen : ?backlog:int -> ?socket_mode:int -> address -> Unix.file_descr
(** Bind and listen.  [backlog] defaults to 16.  A Unix socket first
    unlinks any stale file at the path and applies [socket_mode] (a chmod
    mask, e.g. [0o600]) between bind and listen; a TCP listener sets
    [SO_REUSEADDR] so restarts do not wait out [TIME_WAIT] and ignores
    [socket_mode].  @raise Unix.Unix_error when binding fails. *)

val bound_address : address -> Unix.file_descr -> address
(** The address actually bound: resolves TCP port [0] (ephemeral, used by
    tests and the load bench) to the kernel-assigned port. *)

val close_listener : address -> Unix.file_descr -> unit
(** Close the descriptor and, for a Unix socket, unlink the path.  Never
    raises. *)
