(* The reference-driven simplification service: circuit surgery
   (compact / short_element), SBG removal attribution, the pipeline's error
   certificates, the typed symbolic-dimension limit, and the serve
   integration with byte-identical disk-cache replay. *)

module N = Symref_circuit.Netlist
module Nodal = Symref_mna.Nodal
module Grid = Symref_numeric.Grid
module Random_net = Symref_circuit.Random_net
module Ota = Symref_circuit.Ota
module Ua741 = Symref_circuit.Ua741
module Sbg = Symref_symbolic.Sbg
module Sdet = Symref_symbolic.Sdet
module Budget = Symref_simplify.Budget
module Certificate = Symref_simplify.Certificate
module Pipeline = Symref_simplify.Pipeline
module Serve = Symref_serve
module Protocol = Serve.Protocol
module Service = Serve.Service
module Json = Symref_obs.Json

let netlist name = Filename.concat "../examples/netlists" name

let freqs = Grid.decades ~start:1. ~stop:1e8 ~per_decade:4
let budget () = Budget.v ~db:0.5 ~deg:2. ()

(* --- circuit surgery --- *)

let test_compact () =
  let b = N.Builder.create ~title:"compact" () in
  N.Builder.resistor b "r1" ~a:"in" ~b:"mid" 1e3;
  N.Builder.resistor b "r2" ~a:"mid" ~b:"0" 1e3;
  N.Builder.capacitor b "c1" ~a:"orphan_a" ~b:"orphan_b" 1e-12;
  let c = N.Builder.finish b in
  (* Removing c1 strands orphan_a/orphan_b; compact drops exactly them. *)
  let c = N.remove_element c "c1" in
  let cc = N.compact c in
  Alcotest.(check int) "two stranded nodes dropped" (N.node_count c - 2)
    (N.node_count cc);
  Alcotest.(check bool) "surviving names kept" true
    (N.node_id cc "mid" <> None && N.node_id cc "in" <> None);
  Alcotest.(check bool) "stranded name gone" true (N.node_id cc "orphan_a" = None);
  Alcotest.(check int) "elements untouched" (N.element_count c)
    (N.element_count cc)

let test_short_element () =
  let b = N.Builder.create ~title:"short" () in
  N.Builder.resistor b "rs" ~a:"in" ~b:"mid" 1e-3;
  N.Builder.resistor b "r1" ~a:"mid" ~b:"out" 1e3;
  N.Builder.capacitor b "c1" ~a:"out" ~b:"0" 1e-12;
  let c = N.Builder.finish b in
  let dim c =
    Nodal.dimension
      (Nodal.make c ~input:(Nodal.V_single "in") ~output:(Nodal.Out_node "out"))
  in
  let before = dim c in
  let shorted = N.short_element c "rs" in
  Alcotest.(check int) "series short drops one dimension" (before - 1)
    (dim shorted);
  Alcotest.(check bool) "shorted element gone" true
    (N.find_element shorted "rs" = None);
  Alcotest.(check bool) "merged node keeps the lower-id name" true
    (N.node_id shorted "in" <> None && N.node_id shorted "mid" = None)

let test_short_collapses_constraint () =
  let b = N.Builder.create ~title:"collapse" () in
  N.Builder.vsrc b "v1" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "rg" ~a:"in" ~b:"0" 10.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"out" 1e3;
  N.Builder.capacitor b "c1" ~a:"out" ~b:"0" 1e-12;
  let c = N.Builder.finish b in
  (* Shorting rg merges the driven node into ground, which would collapse
     the voltage source: a typed Invalid_argument, never a bad netlist. *)
  (match N.short_element c "rg" with
  | _ -> Alcotest.fail "shorting rg should have collapsed v1"
  | exception Invalid_argument _ -> ());
  (* Only two-terminal R/G/C/L elements can be shorted. *)
  match N.short_element c "v1" with
  | _ -> Alcotest.fail "shorting a source should be rejected"
  | exception Invalid_argument _ -> ()

(* --- SBG removal attribution --- *)

let test_sbg_removal_records () =
  let o =
    Sbg.prune Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output) ~freqs
  in
  Alcotest.(check (list string))
    "removals mirror the removed names"
    o.Sbg.removed
    (List.map (fun (r : Sbg.removal) -> r.Sbg.element) o.Sbg.removals);
  List.iter
    (fun (r : Sbg.removal) ->
      Alcotest.(check bool)
        (r.Sbg.element ^ " delta is non-negative")
        true
        (r.Sbg.delta_db >= 0. && r.Sbg.delta_deg >= 0.);
      Alcotest.(check bool)
        (r.Sbg.element ^ " cumulative error inside tolerance")
        true
        (r.Sbg.error_db <= 0.5 +. 1e-9 && r.Sbg.error_deg <= 5. +. 1e-9))
    o.Sbg.removals;
  match List.rev o.Sbg.removals with
  | [] -> Alcotest.fail "expected at least one OTA removal"
  | last :: _ ->
      Alcotest.(check (float 0.)) "last cumulative = outcome error (dB)"
        o.Sbg.error_db last.Sbg.error_db;
      Alcotest.(check (float 0.)) "last cumulative = outcome error (deg)"
        o.Sbg.error_deg last.Sbg.error_deg

(* --- pipeline + certificate --- *)

let test_pipeline_ota () =
  let r =
    Pipeline.run Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output) ~budget:(budget ()) ~freqs
  in
  Alcotest.(check bool) "strictly fewer terms" true
    (r.Pipeline.num_terms + r.Pipeline.den_terms
    < r.Pipeline.exact_num_terms + r.Pipeline.exact_den_terms);
  let cert = r.Pipeline.certificate in
  Alcotest.(check bool) "within budget" true cert.Certificate.within_budget;
  Alcotest.(check bool) "certificate re-checks" true (Certificate.check cert);
  Alcotest.(check int) "grid recorded" (Array.length freqs)
    cert.Certificate.grid_points;
  Alcotest.(check int) "three stage rows" 3
    (List.length cert.Certificate.stages);
  Alcotest.(check bool) "bands cover the grid" true
    (cert.Certificate.bands <> []);
  Alcotest.(check bool) "no fallback on the OTA" true (not r.Pipeline.fallback)

let test_certificate_check_rejects_tampering () =
  let r =
    Pipeline.run Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output) ~budget:(budget ()) ~freqs
  in
  let cert = r.Pipeline.certificate in
  let forged = { cert with Certificate.max_db = cert.Certificate.budget_db +. 1. } in
  Alcotest.(check bool) "inflated error breaks the verdict" false
    (Certificate.check forged)

let test_budget_validation () =
  let rejects f =
    match f () with
    | (_ : Budget.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero dB rejected" true
    (rejects (fun () -> Budget.v ~db:0. ~deg:2. ()));
  Alcotest.(check bool) "negative degrees rejected" true
    (rejects (fun () -> Budget.v ~db:0.5 ~deg:(-1.) ()));
  Alcotest.(check bool) "oversubscribed split rejected" true
    (rejects (fun () ->
         Budget.v ~split:{ Budget.sbg = 0.6; sdg = 0.6; sag = 0.2 } ~db:0.5
           ~deg:2. ()));
  (* 6.02 dB and 90 degrees both translate to a relative epsilon of ~1. *)
  Alcotest.(check bool) "epsilon caps at the tighter bound" true
    (Float.abs (Budget.epsilon ~db:6.0206 ~deg:90. -. 1.) < 0.01);
  Alcotest.(check bool) "epsilon of a tight budget is small" true
    (Budget.epsilon ~db:0.1 ~deg:90. < 0.012)

let test_symbolic_limit_typed () =
  match
    Pipeline.run Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output) ~budget:(budget ()) ~freqs
  with
  | (_ : Pipeline.result) ->
      Alcotest.fail "the full uA741 should exceed the symbolic limit"
  | exception Pipeline.Symbolic_limit { dim; limit } ->
      Alcotest.(check int) "limit is Sdet's" Sdet.max_dimension limit;
      Alcotest.(check bool) "dimension above the limit" true (dim > limit)

(* --- serve integration --- *)

let simplify_job path =
  {
    Protocol.default_job with
    Protocol.netlist = `Path path;
    id = Some "simplify-test";
    analysis =
      Protocol.Simplify
        { budget_db = 0.5; budget_deg = 2.; from_hz = 1.; to_hz = 1e8;
          per_decade = 4 };
  }

let test_serve_symbolic_limit () =
  let service = Service.create () in
  let reply = Service.run_job service (simplify_job (netlist "ua741.cir")) in
  Service.shutdown service;
  Alcotest.(check bool) "error status" true
    (reply.Protocol.status = Protocol.Error);
  Alcotest.(check (option string)) "typed error kind"
    (Some "symbolic_limit") (Protocol.error_kind reply)

let test_serve_macro_certificate () =
  let service = Service.create () in
  let reply = Service.run_job service (simplify_job (netlist "ua741_macro.cir")) in
  Service.shutdown service;
  Alcotest.(check bool) "ok status" true (reply.Protocol.status = Protocol.Ok);
  let body = reply.Protocol.body in
  let cert =
    match Json.member "certificate" body with
    | Some c -> c
    | None -> Alcotest.fail "reply carries no certificate"
  in
  Alcotest.(check bool) "certified within budget" true
    (Json.member "within_budget" cert = Some (Json.Bool true));
  let int_at outer inner =
    match Option.bind (Json.member outer body) (Json.member inner) with
    | Some (Json.Num x) -> int_of_float x
    | _ -> Alcotest.fail (outer ^ "." ^ inner ^ " missing")
  in
  Alcotest.(check bool) "strictly fewer denominator terms" true
    (int_at "terms" "den" < int_at "exact_terms" "den")

let test_serve_disk_cache_replay () =
  let dir = Filename.temp_dir "symref-simplify-cache" "" in
  let config =
    { Service.default_config with Service.disk_cache_dir = Some dir }
  in
  let job = simplify_job (netlist "ua741_macro.cir") in
  let s1 = Service.create ~config () in
  let fresh = Service.run_job s1 job in
  Service.shutdown s1;
  (* A second service on the same directory answers from the disk cache:
     same payload bytes, with the cached flag raised. *)
  let s2 = Service.create ~config () in
  let replay = Service.run_job s2 job in
  Service.shutdown s2;
  Alcotest.(check bool) "fresh run not cached" false fresh.Protocol.cached;
  Alcotest.(check bool) "replay served from disk" true replay.Protocol.cached;
  Alcotest.(check string) "byte-identical payload"
    (Json.to_string fresh.Protocol.body)
    (Json.to_string replay.Protocol.body);
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

let test_protocol_simplify_roundtrip () =
  let a =
    Protocol.Simplify
      { budget_db = 0.25; budget_deg = 1.5; from_hz = 10.; to_hz = 1e6;
        per_decade = 3 }
  in
  Alcotest.(check string) "canonical cache-key text"
    "simplify(0.25,1.5,10,1000000,3)"
    (Protocol.analysis_to_string a);
  let job = { Protocol.default_job with Protocol.analysis = a; netlist = `Text "t\n.end\n" } in
  match Protocol.request_of_json (Protocol.request_to_json (Protocol.Submit job)) with
  | Protocol.Submit job' ->
      Alcotest.(check string) "analysis round-trips"
        (Protocol.analysis_to_string a)
        (Protocol.analysis_to_string job'.Protocol.analysis)
  | _ -> Alcotest.fail "submit did not round-trip"

(* --- property: random gm-C nets are certified within budget --- *)

let random_within_budget (seed, nodes) =
  let c = Random_net.circuit ~seed ~nodes () in
  let input = Nodal.Vsrc_element "vin" in
  let output = Nodal.Out_node (Random_net.output_node ~seed ~nodes) in
  match Pipeline.run c ~input ~output ~budget:(budget ()) ~freqs with
  | r ->
      let cert = r.Pipeline.certificate in
      cert.Certificate.within_budget
      && Certificate.check cert
      && r.Pipeline.num_terms <= r.Pipeline.exact_num_terms
      && r.Pipeline.den_terms <= r.Pipeline.exact_den_terms
  | exception Pipeline.Symbolic_limit _ -> true

let prop_random_within_budget =
  QCheck2.Test.make
    ~name:"random nets simplify within the certified budget" ~count:6
    QCheck2.Gen.(pair (int_range 1 500) (int_range 3 5))
    random_within_budget

(* The inputs of the property's range whose SBG prune is degenerate.  Two
   prunes leave no conductance: the pruned circuit has no anchor scale, and
   its references start from unit scales instead of raising.  Six cut a
   floating island off from ground: the pruned determinant vanishes, and
   the pipeline keeps the unpruned circuit. *)
let test_random_degenerate_prunes () =
  List.iter
    (fun (seed, nodes) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, %d nodes" seed nodes)
        true
        (random_within_budget (seed, nodes)))
    [ (387, 3); (463, 5); (20, 5); (140, 5); (288, 5); (395, 5); (487, 5); (500, 5) ]

let suite =
  [
    ( "simplify",
      [
        Alcotest.test_case "netlist compact" `Quick test_compact;
        Alcotest.test_case "netlist short_element" `Quick test_short_element;
        Alcotest.test_case "short collapse is typed" `Quick
          test_short_collapses_constraint;
        Alcotest.test_case "sbg removal attribution" `Quick
          test_sbg_removal_records;
        Alcotest.test_case "pipeline certifies the OTA" `Quick
          test_pipeline_ota;
        Alcotest.test_case "certificate rejects tampering" `Quick
          test_certificate_check_rejects_tampering;
        Alcotest.test_case "budget validation" `Quick test_budget_validation;
        Alcotest.test_case "symbolic limit is typed" `Quick
          test_symbolic_limit_typed;
        Alcotest.test_case "serve: symbolic_limit reply" `Quick
          test_serve_symbolic_limit;
        Alcotest.test_case "serve: macro certificate" `Quick
          test_serve_macro_certificate;
        Alcotest.test_case "serve: disk-cache replay" `Quick
          test_serve_disk_cache_replay;
        Alcotest.test_case "protocol: simplify round-trip" `Quick
          test_protocol_simplify_roundtrip;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_random_within_budget ]
      @ [
          Alcotest.test_case "random nets: degenerate prunes" `Quick
            test_random_degenerate_prunes;
        ] );
  ]
