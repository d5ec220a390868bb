(* Content-addressed LRU result cache with a byte budget.

   Classic design: a hash table from key to an intrusive doubly-linked node
   ordered by recency (head = most recent).  A second table maps spelling
   aliases to the same nodes; each node lists its aliases, so they leave
   with it.  Everything under one mutex —
   lookups are microseconds against jobs that cost milliseconds, so finer
   locking would buy nothing. *)

module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics

type node = {
  key : string;
  payload : string;
  mutable aliases : string list; (* spelling keys that resolve to [key] *)
  mutable prev : node option; (* towards the head (more recent) *)
  mutable next : node option; (* towards the tail (less recent) *)
}

type t = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  alias_table : (string, node) Hashtbl.t;
  max_bytes : int;
  mutable head : node option;
  mutable tail : node option;
  mutable used_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable spelling_hits : int;
}

let create ?(max_bytes = 64 * 1024 * 1024) () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    alias_table = Hashtbl.create 256;
    max_bytes;
    head = None;
    tail = None;
    used_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    spelling_hits = 0;
  }

(* An entry's aliases are charged to it, so they leave the budget with it. *)
let size_of n =
  List.fold_left
    (fun acc a -> acc + String.length a)
    (String.length n.key + String.length n.payload)
    n.aliases

(* [serve.cache_bytes] mirrors [used_bytes] with signed deltas: every
   mutation below pairs its [used_bytes] update with the same delta here,
   so the counter reads as a live gauge in --stats and snapshots. *)
let track_bytes delta = Metrics.add Metrics.serve_cache_bytes delta

(* --- recency list primitives (caller holds the lock) --- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Take an entry out of the table, the recency list and the budget; its
   aliases go with it. *)
let remove t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  List.iter (Hashtbl.remove t.alias_table) n.aliases;
  t.used_bytes <- t.used_bytes - size_of n;
  track_bytes (-size_of n)

let evict_to_budget t =
  while t.used_bytes > t.max_bytes do
    match t.tail with
    | None -> assert false (* used_bytes > 0 implies an entry *)
    | Some n ->
        remove t n;
        t.evictions <- t.evictions + 1;
        Metrics.incr Metrics.serve_cache_evictions
  done

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* A found entry: refresh its recency and count the hit (caller holds the
   lock). *)
let hit t n =
  unlink t n;
  push_front t n;
  t.hits <- t.hits + 1;
  Metrics.incr Metrics.serve_cache_hits;
  n.payload

(* --- public API --- *)

let find t ~key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some n -> Some (hit t n)
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr Metrics.serve_cache_misses;
      None

let add t ~key payload =
  with_lock t @@ fun () ->
  Option.iter (remove t) (Hashtbl.find_opt t.table key);
  let n = { key; payload; aliases = []; prev = None; next = None } in
  if size_of n <= t.max_bytes then begin
    Hashtbl.replace t.table key n;
    push_front t n;
    t.used_bytes <- t.used_bytes + size_of n;
    track_bytes (size_of n);
    evict_to_budget t
  end

let find_alias t ~alias =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.alias_table alias with
  | Some n ->
      t.spelling_hits <- t.spelling_hits + 1;
      Metrics.incr Metrics.serve_spelling_hits;
      Some (hit t n)
  | None -> None

(* A spelling determines its canonical key, so an alias already recorded
   (by a concurrent job of the same spelling) already points at [key]. *)
let alias t ~alias ~key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some n when not (Hashtbl.mem t.alias_table alias) ->
      Hashtbl.replace t.alias_table alias n;
      n.aliases <- alias :: n.aliases;
      t.used_bytes <- t.used_bytes + String.length alias;
      track_bytes (String.length alias);
      evict_to_budget t
  | Some _ | None -> ()

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let evictions t = with_lock t (fun () -> t.evictions)
let spelling_hits t = with_lock t (fun () -> t.spelling_hits)
let entries t = with_lock t (fun () -> Hashtbl.length t.table)
let aliases t = with_lock t (fun () -> Hashtbl.length t.alias_table)
let bytes t = with_lock t (fun () -> t.used_bytes)

let clear t =
  with_lock t @@ fun () ->
  Hashtbl.reset t.table;
  Hashtbl.reset t.alias_table;
  t.head <- None;
  t.tail <- None;
  track_bytes (-t.used_bytes);
  t.used_bytes <- 0

let stats_json t =
  with_lock t @@ fun () ->
  let i k v = (k, Json.Num (float_of_int v)) in
  Json.Obj
    [
      i "hits" t.hits;
      i "misses" t.misses;
      i "evictions" t.evictions;
      i "spelling_hits" t.spelling_hits;
      i "entries" (Hashtbl.length t.table);
      i "aliases" (Hashtbl.length t.alias_table);
      i "bytes" t.used_bytes;
      i "max_bytes" t.max_bytes;
    ]
