(* Hidden entry point: the writer child of the disk-cache sharing test
   re-executes this binary rather than forking it. *)
let () =
  match Sys.argv with
  | [| _; arg; dir; key; payload |] when arg = Test_serve.disk_cache_writer_arg ->
      Test_serve.disk_cache_writer ~dir ~key payload;
      exit 0
  | _ -> ()

(* Deterministic seed for the property tests unless the caller overrides. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "414243"

let () =
  Alcotest.run "symref"
    (Test_extfloat.suite @ Test_stats_grid.suite @ Test_poly.suite
   @ Test_dft.suite @ Test_linalg.suite @ Test_circuit.suite @ Test_mna.suite
   @ Test_core.suite @ Test_spice.suite @ Test_symbolic.suite
   @ Test_roots.suite @ Test_random_net.suite @ Test_sensitivity.suite @ Test_transform.suite @ Test_sag.suite @ Test_margins_noise.suite @ Test_monte_carlo.suite @ Test_rational.suite @ Test_lc_ladder.suite @ Test_report.suite @ Test_paper_shape.suite @ Test_two_stage.suite @ Test_twoport.suite @ Test_locus.suite @ Test_properties.suite @ Test_verify.suite @ Test_tree_terms.suite @ Test_netlist_files.suite @ Test_fit.suite @ Test_filter_design.suite @ Test_transient.suite @ Test_nested.suite @ Test_obs.suite @ Test_json.suite @ Test_serve.suite @ Test_fault.suite
   @ Test_kernel.suite @ Test_batch.suite @ Test_simplify.suite)
