(* The serve wire protocol: pure JSON codec for requests and replies.

   Kept total and side-effect free so the daemon can turn any decoding
   failure into a structured error reply, and so tests can fuzz it without
   a socket. *)

module Json = Symref_obs.Json

(* v2 added the [overloaded] status and its [retry_after_ms] hint — a pure
   extension, so v1 peers stay understandable and [min_protocol_version]
   stays 1: a rolling restart may mix versions without a flag day.  A peer
   *newer* than us is still refused (we cannot know it stayed compatible). *)
let protocol_version = 2
let min_protocol_version = 1

let fail fmt = Printf.ksprintf failwith fmt

(* --- analyses --- *)

type analysis =
  | Reference
  | Adaptive
  | Bode of { from_hz : float; to_hz : float; per_decade : int }
  | Poles
  | Simplify of {
      budget_db : float;
      budget_deg : float;
      from_hz : float;
      to_hz : float;
      per_decade : int;
    }

let analysis_to_string = function
  | Reference -> "reference"
  | Adaptive -> "adaptive"
  | Bode { from_hz; to_hz; per_decade } ->
      Printf.sprintf "bode(%.17g,%.17g,%d)" from_hz to_hz per_decade
  | Poles -> "poles"
  | Simplify { budget_db; budget_deg; from_hz; to_hz; per_decade } ->
      Printf.sprintf "simplify(%.17g,%.17g,%.17g,%.17g,%d)" budget_db budget_deg
        from_hz to_hz per_decade

(* --- requests --- *)

type job = {
  id : string option;
  netlist : [ `Text of string | `Path of string ];
  analysis : analysis;
  input : string;
  output : string option;
  sigma : int;
  r : float;
  timeout_ms : int option;
}

let default_job =
  {
    id = None;
    netlist = `Text "";
    analysis = Reference;
    input = "auto";
    output = None;
    sigma = 6;
    r = 1.0;
    timeout_ms = None;
  }

(* Over the job's spelling, not its canonical netlist: no parse, so the
   router can place a job and a worker can find a repeat before either
   reads the netlist.  [id] and [timeout_ms] do not change the answer and
   stay out. *)
let spelling_key job =
  let netlist =
    match job.netlist with
    | `Text s -> "text\x00" ^ s
    | `Path p -> "path\x00" ^ p
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            netlist;
            analysis_to_string job.analysis;
            job.input;
            (match job.output with Some o -> o | None -> "");
            string_of_int job.sigma;
            Printf.sprintf "%.17g" job.r;
          ]))

type request = Hello | Stats | Submit of job | Shutdown

let num x = Json.Num x
let inum i = Json.Num (float_of_int i)
let str s = Json.Str s

let opt_field k f = function None -> [] | Some v -> [ (k, f v) ]

let analysis_fields = function
  | Reference -> [ ("analysis", str "reference") ]
  | Adaptive -> [ ("analysis", str "adaptive") ]
  | Poles -> [ ("analysis", str "poles") ]
  | Bode { from_hz; to_hz; per_decade } ->
      [
        ("analysis", str "bode");
        ("from", num from_hz);
        ("to", num to_hz);
        ("per_decade", inum per_decade);
      ]
  | Simplify { budget_db; budget_deg; from_hz; to_hz; per_decade } ->
      [
        ("analysis", str "simplify");
        ("budget_db", num budget_db);
        ("budget_deg", num budget_deg);
        ("from", num from_hz);
        ("to", num to_hz);
        ("per_decade", inum per_decade);
      ]

let request_to_json = function
  | Hello -> Json.Obj [ ("op", str "hello") ]
  | Stats -> Json.Obj [ ("op", str "stats") ]
  | Shutdown -> Json.Obj [ ("op", str "shutdown") ]
  | Submit j ->
      Json.Obj
        (("op", str "submit")
         :: opt_field "id" str j.id
        @ (match j.netlist with
          | `Text t -> [ ("netlist", str t) ]
          | `Path p -> [ ("path", str p) ])
        @ analysis_fields j.analysis
        @ [ ("input", str j.input) ]
        @ opt_field "output" str j.output
        @ [ ("sigma", inum j.sigma); ("r", num j.r) ]
        @ opt_field "timeout_ms" inum j.timeout_ms)

let get_str k j =
  match Json.member k j with
  | Some (Json.Str s) -> Some s
  | Some v -> fail "protocol: field %s must be a string, got %s" k (Json.to_string v)
  | None -> None

let get_num k j =
  match Json.member k j with
  | Some (Json.Num x) -> Some x
  | Some v -> fail "protocol: field %s must be a number, got %s" k (Json.to_string v)
  | None -> None

let get_int k j =
  Option.map
    (fun x ->
      if Float.is_integer x then int_of_float x
      else fail "protocol: field %s must be an integer" k)
    (get_num k j)

let get_bool k j =
  match Json.member k j with
  | Some (Json.Bool b) -> Some b
  | Some v -> fail "protocol: field %s must be a boolean, got %s" k (Json.to_string v)
  | None -> None

let analysis_of_json j =
  match get_str "analysis" j with
  | None | Some "reference" -> Reference
  | Some "adaptive" -> Adaptive
  | Some "poles" -> Poles
  | Some "bode" ->
      Bode
        {
          from_hz = Option.value ~default:1. (get_num "from" j);
          to_hz = Option.value ~default:1e8 (get_num "to" j);
          per_decade = Option.value ~default:4 (get_int "per_decade" j);
        }
  | Some "simplify" ->
      Simplify
        {
          budget_db = Option.value ~default:0.5 (get_num "budget_db" j);
          budget_deg = Option.value ~default:2. (get_num "budget_deg" j);
          from_hz = Option.value ~default:1. (get_num "from" j);
          to_hz = Option.value ~default:1e8 (get_num "to" j);
          per_decade = Option.value ~default:4 (get_int "per_decade" j);
        }
  | Some a -> fail "protocol: unknown analysis %S" a

let job_of_json j =
  let netlist =
    match (get_str "netlist" j, get_str "path" j) with
    | Some t, None -> `Text t
    | None, Some p -> `Path p
    | Some _, Some _ -> fail "protocol: submit carries both netlist and path"
    | None, None -> fail "protocol: submit needs a netlist or a path"
  in
  {
    id = get_str "id" j;
    netlist;
    analysis = analysis_of_json j;
    input = Option.value ~default:default_job.input (get_str "input" j);
    output = get_str "output" j;
    sigma = Option.value ~default:default_job.sigma (get_int "sigma" j);
    r = Option.value ~default:default_job.r (get_num "r" j);
    timeout_ms = get_int "timeout_ms" j;
  }

let request_of_json j =
  match get_str "op" j with
  | Some "hello" -> Hello
  | Some "stats" -> Stats
  | Some "shutdown" -> Shutdown
  | Some "submit" -> Submit (job_of_json j)
  | Some op -> fail "protocol: unknown op %S" op
  | None -> fail "protocol: request has no op field"

(* --- replies --- *)

type status = Ok | Error | Timeout | Busy | Overloaded

let status_to_string = function
  | Ok -> "ok"
  | Error -> "error"
  | Timeout -> "timeout"
  | Busy -> "busy"
  | Overloaded -> "overloaded"

let status_of_string = function
  | "ok" -> Ok
  | "error" -> Error
  | "timeout" -> Timeout
  | "busy" -> Busy
  | "overloaded" -> Overloaded
  | s -> fail "protocol: unknown status %S" s

type reply = {
  reply_id : string option;
  status : status;
  cached : bool;
  version : string;
  body : Json.t;
}

let ok ?(id = None) ?(cached = false) body =
  { reply_id = id; status = Ok; cached; version = Version.version; body }

let error ?(id = None) ?(status = Error) ~kind message =
  {
    reply_id = id;
    status;
    cached = false;
    version = Version.version;
    body = Json.Obj [ ("kind", str kind); ("message", str message) ];
  }

(* Load shedding: a typed backpressure reply whose [retry_after_ms] tells
   the client when the queue is expected to have drained enough to admit
   the job — {!Client.retry_request} honours it over its fixed schedule. *)
let overloaded ?(id = None) ~retry_after_ms message =
  {
    reply_id = id;
    status = Overloaded;
    cached = false;
    version = Version.version;
    body =
      Json.Obj
        [
          ("kind", str "overloaded");
          ("message", str message);
          ("retry_after_ms", num retry_after_ms);
        ];
  }

let retry_after_ms r =
  match r.status with
  | Busy | Overloaded -> get_num "retry_after_ms" r.body
  | Ok | Error | Timeout -> None

let reply_to_json r =
  Json.Obj
    (opt_field "id" str r.reply_id
    @ [
        ("status", str (status_to_string r.status));
        ("cached", Json.Bool r.cached);
        ("version", str r.version);
        ((match r.status with Ok -> "result" | _ -> "error"), r.body);
      ])

let reply_of_json j =
  let status =
    match get_str "status" j with
    | Some s -> status_of_string s
    | None -> fail "protocol: reply has no status field"
  in
  let body_key = match status with Ok -> "result" | _ -> "error" in
  {
    reply_id = get_str "id" j;
    status;
    cached = Option.value ~default:false (get_bool "cached" j);
    version = Option.value ~default:"" (get_str "version" j);
    body = Option.value ~default:Json.Null (Json.member body_key j);
  }

let hello_banner () =
  Json.Obj
    [
      ("hello", str "symref");
      ("version", str Version.version);
      ("protocol", inum protocol_version);
    ]

let error_kind r = get_str "kind" r.body
let error_message r = get_str "message" r.body
