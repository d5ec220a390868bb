(* The per-layer metric catalogue: every traced run reports all of them, 0
   where a layer is not on the workload's path.  Times are mean ms per op of
   the layer's self time; counts are per op. *)

let catalogue =
  [
    ("spice.parse_ms", "ms");
    ("spice.canon_ms", "ms");
    ("circuit.resolve_ms", "ms");
    ("mna.stamp_ms", "ms");
    ("linalg.symbolic_ms", "ms");
    ("linalg.symbolic_count", "count");
    ("linalg.replay_batch_ms", "ms");
    ("linalg.replay_point_ms", "ms");
    ("linalg.lu_evals", "count");
    ("core.adaptive_self_ms", "ms");
    ("core.passes", "count");
    ("core.verify_ms", "ms");
    ("serve.decode_ms", "ms");
    ("serve.key_ms", "ms");
    ("serve.cache_lookup_ms", "ms");
    ("serve.payload_ms", "ms");
    ("serve.job_ms", "ms");
    ("serve.cache_store_ms", "ms");
    ("serve.wire_ms", "ms");
    ("serve.router_hop_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("router.hedge_ratio", "ratio");
    ("serve.shed_ratio", "ratio");
    ("error_ratio", "ratio");
    ("unhealthy_ratio", "ratio");
    ("obs.trace_overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

let metrics given =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n catalogue) then invalid_arg ("Layers.metrics: unknown metric " ^ n))
    given;
  List.map
    (fun (n, u) -> (n, Option.value (List.assoc_opt n given) ~default:0., u))
    catalogue
