(* The symref benchmark: one workload per invocation.

     main.exe --workload ref-mid|fleet-hit|fleet-miss --seed N --seconds S --trace 0|1

   Run from the repository root (the fleet workloads start
   _build/default/bin/symref.exe).  With --trace 0 it prints the end-to-end
   metrics, with --trace 1 the per-layer split; always as the last line of
   stdout, one JSON object {correct, attempted, failed, metrics}.  The line
   before it carries provenance and every finding of the checks. *)

module Json = Symref_obs.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload ref-mid|fleet-hit|fleet-miss --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (w, s, secs, t)
  | _ -> usage ()

(* The checkout's commit, read from .git without leaving the working
   directory; "unknown" outside a git checkout. *)
let git_commit () =
  let read p = try Some (String.trim (In_channel.with_open_text p In_channel.input_all)) with Sys_error _ -> None in
  match read (Filename.concat ".git" "HEAD") with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = String.sub head 5 (String.length head - 5) in
      Option.value (read (Filename.concat ".git" r)) ~default:"unknown"
  | Some sha -> sha
  | None -> "unknown"

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> 0
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      ignore (Unix.close_process_in ic);
      n

let () =
  let workload, seed, seconds, trace = parse_args () in
  let run =
    match workload with
    | "ref-mid" -> fun () -> Ref_mid.run ~seed ~seconds ~trace
    | "fleet-hit" -> fun () -> Fleet_wl.run Fleet_wl.Hit ~seed ~seconds ~trace
    | "fleet-miss" -> fun () -> Fleet_wl.run Fleet_wl.Miss ~seed ~seconds ~trace
    | w ->
        Printf.eprintf "unknown workload %s\n" w;
        exit 2
  in
  if workload <> "ref-mid" && not (Sys.file_exists Fleet.fleet_exe) then begin
    Printf.eprintf "%s not built\n" Fleet.fleet_exe;
    exit 1
  end;
  let r = run () in
  Fleet.cleanup_root ();
  let str s = Json.Str s and num x = Json.Num x in
  let provenance =
    Json.Obj
      [
        ("workload", str workload);
        ("seed", num (float_of_int seed));
        ("seconds", num seconds);
        ("trace", Json.Bool trace);
        ("nproc", num (float_of_int (nproc ())));
        ("recommended_domain_count", num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", str Sys.ocaml_version);
        ("commit", str (git_commit ()));
        ("findings", Json.Obj (List.map (fun (k, v) -> (k, str v)) r.Report.notes));
      ]
  in
  print_endline (Json.to_string (Json.Obj [ ("provenance", provenance) ]));
  let metrics =
    Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", str u) ])) r.Report.metrics)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.Report.correct);
            ("attempted", num (float_of_int r.Report.attempted));
            ("failed", num (float_of_int r.Report.failed));
            ("metrics", metrics);
          ]))
