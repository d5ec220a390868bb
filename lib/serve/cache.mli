(** Content-addressed result cache: canonical job key → serialized reply
    payload, LRU-evicted under a byte budget.

    Keys come from {!Service.cache_key}: the MD5 of the {e canonicalised}
    netlist (parse → {!Symref_spice.Writer.to_string}, so formatting,
    comment and case differences hash alike) concatenated with the
    canonical analysis-parameter string.  Values are the compact JSON
    payload text, stored and replayed verbatim — a hit is bit-identical to
    the reply that populated it.

    A worker also keeps {e aliases}: the spelling key of a job it has
    answered, mapped to that job's canonical key, so a repeat of the same
    text skips parsing and canonicalisation ({!find_alias}).

    Thread-safe (one mutex; operations are O(1) hash + list splicing).
    The gauges below are always on (the protocol's [stats] reply and the
    batch report read them); the {!Symref_obs.Metrics} serve counters
    ([serve.cache_hit] / [serve.cache_miss] / [serve.cache_eviction]) are
    bumped as well, and cost nothing while metrics are disabled. *)

type t

val create : ?max_bytes:int -> unit -> t
(** [max_bytes] (default 64 MiB) bounds [sum (|key| + |payload| +
    |aliases|)] over the live entries; an over-budget insertion evicts least-recently-used
    entries first.  A payload larger than the whole budget is not cached.
    [max_bytes <= 0] disables caching (every lookup misses). *)

val find : t -> key:string -> string option
(** [Some payload] refreshes the entry's recency and counts a hit;
    [None] counts a miss. *)

val add : t -> key:string -> string -> unit
(** Insert (or refresh) the payload for [key], then evict LRU entries
    until the budget holds. *)

val find_alias : t -> alias:string -> string option
(** The payload of the entry [alias] points to ({!alias}).  [Some]
    refreshes the entry's recency and counts a hit, also in
    [spelling_hits]; [None] counts nothing, so a caller that goes on to
    {!find} the canonical key still makes one lookup per job. *)

val alias : t -> alias:string -> key:string -> unit
(** Point [alias] (a {!Protocol.spelling_key}) at the resident entry
    [key]; a no-op when [key] is not resident or [alias] is already
    recorded.  The alias bytes are charged to the entry, and the alias
    is dropped when the entry is evicted, replaced or cleared. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val spelling_hits : t -> int
(** Hits served through {!find_alias}. *)

val entries : t -> int

val aliases : t -> int
(** Live aliases. *)

val bytes : t -> int

val clear : t -> unit
(** Drop every entry (gauges keep their values; no evictions counted). *)

val stats_json : t -> Symref_obs.Json.t
(** [{hits; misses; evictions; spelling_hits; entries; aliases; bytes;
    max_bytes}] for the
    protocol's [stats] reply and the batch report. *)
