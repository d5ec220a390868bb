(* What a workload hands back, and the small statistics every workload
   shares. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : (string * string) list;  (** mismatches and validity findings *)
}

(* Linear-interpolation quantile of an unsorted sample; [nan] when empty. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' s)

(* Length of the slices the timed window is cut into. *)
let slice_s = 5.

(* End-to-end metrics shared by every workload.  [samples] holds one
   (completion time from the window's start, latency) pair per completed
   op, in seconds.  Throughput and latency quantiles are computed per
   [slice_s] slice of the window and reported as the median over the
   slices, so a slow spell of the shared host that covers a minority of the
   window does not move them.  [ok_ratio] and [healthy_ratio] are the
   complements of the error and unhealthy ratios, so that no end-to-end
   value is ever 0. *)
let end_to_end ~setup_s ~ops ~window_s ~samples ~failed ~unhealthy ~rss_mb =
  let n = Int.max 1 (int_of_float (Float.round (window_s /. slice_s))) in
  let width = window_s /. float_of_int n in
  let slices = Array.make n [] in
  Array.iter
    (fun (t, dt) ->
      let k = Int.min (n - 1) (Int.max 0 (int_of_float (t /. width))) in
      slices.(k) <- (dt *. 1000.) :: slices.(k))
    samples;
  let slices = Array.map Array.of_list slices in
  let busy = List.filter (fun ms -> Array.length ms > 0) (Array.to_list slices) in
  let latency p = median (Array.of_list (List.map (fun ms -> quantile ms p) busy)) in
  [
    ("setup_s", setup_s, "s");
    ("throughput_per_s", median (Array.map (fun ms -> float_of_int (Array.length ms) /. width) slices), "1/s");
    ("latency_ms_p50", latency 0.5, "ms");
    ("latency_ms_p90", latency 0.9, "ms");
    ("ok_ratio", 1. -. ratio failed ops, "ratio");
    ("healthy_ratio", 1. -. ratio unhealthy ops, "ratio");
    ("peak_rss_mb", rss_mb, "MiB");
  ]
