(* In-memory span recorder.  Every span keeps its name, start, end, parent
   and request id in flat arrays (no allocation per span beyond growth), and
   nothing is written out until [self_times] runs after the measured window.
   A span's self time is its duration minus the durations of its direct
   children; children never overlap, since every span is entered and left on
   one thread in call order. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable req : int array;
  mutable current : int;  (* innermost open span, -1 at top level *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    current = -1;
    ids = Hashtbl.create 32;
    names = [||];
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      Hashtbl.add t.ids s i;
      t.names <- Array.append t.names [| s |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a d = Array.append a (Array.make (cap - Array.length a) d) in
  t.name <- g t.name 0;
  t.start <- g t.start 0.;
  t.stop <- g t.stop 0.;
  t.parent <- g t.parent (-1);
  t.req <- g t.req 0

(* [span t id ~req f] records one span named by the interned [id] around
   [f ()]; the span closes even when [f] raises. *)
let span t id ~req f =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- t.current;
  t.req.(i) <- req;
  t.current <- i;
  t.start.(i) <- Clock.now ();
  let close () =
    t.stop.(i) <- Clock.now ();
    t.current <- t.parent.(i)
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* A completed span recorded from timestamps taken elsewhere (a client
   request timed around a blocking exchange). *)
let record t id ~req ~start ~stop =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- t.current;
  t.req.(i) <- req;
  t.start.(i) <- start;
  t.stop.(i) <- stop

let durations t = Array.init t.n (fun i -> t.stop.(i) -. t.start.(i))

(* Per span name: (total self seconds, total inclusive seconds, span
   count). *)
let totals t =
  let dur = durations t in
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. dur.(i)
  done;
  let k = Array.length t.names in
  let self = Array.make k 0. and incl = Array.make k 0. and cnt = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let id = t.name.(i) in
    self.(id) <- self.(id) +. (dur.(i) -. child.(i));
    incl.(id) <- incl.(id) +. dur.(i);
    cnt.(id) <- cnt.(id) + 1
  done;
  fun name ->
    match Hashtbl.find_opt t.ids name with
    | None -> (0., 0., 0)
    | Some id -> (self.(id), incl.(id), cnt.(id))

(* Inclusive durations (seconds) of every span with this name, in record
   order. *)
let durations_of t name =
  match Hashtbl.find_opt t.ids name with
  | None -> [||]
  | Some id ->
      let out = ref [] in
      for i = t.n - 1 downto 0 do
        if t.name.(i) = id then out := (t.stop.(i) -. t.start.(i)) :: !out
      done;
      Array.of_list !out
