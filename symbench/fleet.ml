(* A `symref fleet` under test: started with [Unix.create_process] (never
   [Unix.fork], which OCaml 5 refuses once a domain exists) in a fresh
   directory inside the checkout, talked to over raw NDJSON on its Unix
   sockets, drained with a protocol Shutdown and reaped. *)

module Transport = Symref_serve.Transport
module Protocol = Symref_serve.Protocol
module Json = Symref_obs.Json

let fleet_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "symref.exe"))

(* Worker count: one worker per core of the reference host (2 cores). *)
let size = 2

type t = { pid : int; dir : string; front : string }

let worker_sock dir i = Filename.concat dir (Printf.sprintf "worker-%d.sock" i)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* Relative paths keep the socket names short whatever the checkout's
   location (sun_path holds 108 bytes). *)
let root = ".symbench"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    if not (Sys.file_exists root) then Unix.mkdir root 0o755;
    incr n;
    let d = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) !n) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let cleanup_root () = try Unix.rmdir root with Unix.Unix_error _ -> ()

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Replies slower than this count as failed ops instead of hanging the run. *)
let reply_timeout_s = 60.

let connect path =
  let fd = Transport.connect (Transport.Unix_sock path) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  match input_line ic with
  | _banner -> { fd; ic; oc }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let exchange c line =
  output_string c.oc line;
  flush c.oc;
  input_line c.ic

let line_of req = Json.to_string (Protocol.request_to_json req) ^ "\n"

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Fleets not yet stopped; whatever ends the run stops them first. *)
let running : t list ref = ref []

let start ~stats =
  let dir = fresh_dir () in
  let front = Filename.concat dir "front.sock" in
  let out = Unix.openfile (Filename.concat dir "fleet.out") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile (Filename.concat dir "fleet.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    Array.of_list
      ([ fleet_exe; "fleet"; Printf.sprintf "--size=%d" size; "--dir=" ^ dir; "--listen=" ^ front ]
      @ if stats then [ "--stats" ] else [])
  in
  let pid = Unix.create_process fleet_exe args Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  let t = { pid; dir; front } in
  running := t :: !running;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec ready () =
    match connect front with
    | c -> close c
    | exception (Unix.Unix_error _ | End_of_file | Sys_error _) ->
        if not (alive pid) then failwith "fleet exited during start-up"
        else if Unix.gettimeofday () > deadline then failwith "fleet not ready after 60 s"
        else begin
          Unix.sleepf 0.005;
          ready ()
        end
  in
  ready ();
  t

(* Sum of VmHWM over the fleet process and its children (the workers). *)
let peak_rss_mb t =
  let ppid_of pid =
    match In_channel.with_open_text (Printf.sprintf "/proc/%s/stat" pid) In_channel.input_all with
    | exception Sys_error _ -> -1
    | s -> (
        (* Fields after the parenthesised command: state, ppid, ... *)
        match String.rindex_opt s ')' with
        | None -> -1
        | Some i -> (
            match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
            | _state :: ppid :: _ -> int_of_string ppid
            | _ -> -1))
  in
  let kids =
    Array.to_list (Sys.readdir "/proc")
    |> List.filter (fun d -> d <> "" && d.[0] >= '0' && d.[0] <= '9' && ppid_of d = t.pid)
  in
  List.fold_left (fun acc p -> acc +. Report.peak_rss_mb p) (Report.peak_rss_mb (string_of_int t.pid)) kids

let stats_json t =
  let c = connect t.front in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      let r = Protocol.reply_of_json (Json.parse (exchange c (line_of Protocol.Stats))) in
      r.Protocol.body)

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

(* Per worker: (cache hits, cache misses, breaker closed and no failures);
   one unhealthy entry when the fleet does not answer. *)
let worker_views t =
  match member_path [ "workers" ] (stats_json t) with
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _ | Failure _) -> [ (0, 0, false) ]
  | None -> [ (0, 0, false) ]
  | Some ws ->
      List.map
        (fun w ->
          let int path = match member_path path w with Some v -> Json.to_int v | None -> 0 in
          let healthy =
            member_path [ "breaker" ] w = Some (Json.Str "closed")
            && int [ "failures" ] = 0
            && member_path [ "alive" ] w = Some (Json.Bool true)
          in
          (int [ "stats"; "cache"; "hits" ], int [ "stats"; "cache"; "misses" ], healthy))
        (Json.to_list ws)

type outcome = {
  counters : (string * int) list;  (** the fleet's --stats table, when on *)
  restarts : int;  (** worker (re)starts beyond the first generation *)
}

let read_file path = try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

(* Shutdown through the front (the fleet then drains its workers), wait for
   the fleet to exit — escalating to signals if it does not — and reap it. *)
let stop t =
  running := List.filter (fun u -> u.pid <> t.pid) !running;
  (try
     let c = connect t.front in
     (try ignore (exchange c (line_of Protocol.Shutdown)) with End_of_file | Sys_error _ -> ());
     close c
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  let wait_for secs =
    let deadline = Unix.gettimeofday () +. secs in
    let rec go () = if alive t.pid && Unix.gettimeofday () < deadline then (Unix.sleepf 0.01; go ()) in
    go ()
  in
  wait_for 30.;
  if alive t.pid then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    wait_for 10.;
    if alive t.pid then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
    end
  end;
  let counters =
    List.filter_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | name :: v :: _ -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' (read_file (Filename.concat t.dir "fleet.out")))
  in
  let serving =
    List.length
      (List.filter
         (fun l ->
           let needle = "serving on" in
           let n = String.length needle and m = String.length l in
           let rec at i = i + n <= m && (String.sub l i n = needle || at (i + 1)) in
           at 0)
         (String.split_on_char '\n' (read_file (Filename.concat t.dir "fleet.err"))))
  in
  rm_rf t.dir;
  { counters; restarts = Int.max 0 (serving - size) }

let () = at_exit (fun () -> List.iter (fun t -> ignore (stop t)) !running)
