(* The end-to-end workload the paper's references exist for: generate a
   numerical reference, drive the three simplification stages under an error
   budget, and re-verify the simplified H(s) against the reference.

   Stage order and budget flow:

     reference (full circuit)
        |
     SBG  - prune/short circuit elements under the SBG budget share
        |
     dimension check - the pruned circuit must fit Sdet.max_dimension
        |
     Sdet - exact symbolic network function of the pruned circuit
        |
     reference (pruned circuit) - eq. 3 references for SDG
        |
     SDG  - per-coefficient term truncation under the SDG share
        |
     SAG  - function-level term dropping under the SAG share
        |
     verify - measured deviation of the result vs the original reference

   When the verification sweep lands outside the total budget the SDG/SAG
   epsilons are halved and those two stages re-run (the SBG prune and the
   exact expression are kept).  After [max_attempts] the pipeline falls back
   to the exact pruned expression, whose deviation is the measured SBG
   residual — inside the SBG share by construction — so a finite budget is
   always certifiable unless the circuit itself is out of reach. *)

module Netlist = Symref_circuit.Netlist
module Nodal = Symref_mna.Nodal
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Deviation = Symref_core.Deviation
module Sbg = Symref_symbolic.Sbg
module Sdet = Symref_symbolic.Sdet
module Sdg = Symref_symbolic.Sdg
module Sag = Symref_symbolic.Sag
module Sym = Symref_symbolic.Sym
module Ef = Symref_numeric.Extfloat
module Metrics = Symref_obs.Metrics
module Trace = Symref_obs.Trace

exception Symbolic_limit of { dim : int; limit : int }

type config = {
  sigma : int;
  r : float;
  max_attempts : int;
  shorts : bool;
}

let default_config = { sigma = 6; r = 1.; max_attempts = 3; shorts = true }

type result = {
  exact_num_terms : int;
  exact_den_terms : int;
  num : Sym.expr;
  den : Sym.expr;
  num_terms : int;
  den_terms : int;
  elements_before : int;
  elements_after : int;
  dim : int;
  pruned : Netlist.t;
  sbg : Sbg.outcome;
  sdg_num : Sdg.report;
  sdg_den : Sdg.report;
  sag : Sag.report;
  attempts : int;
  fallback : bool;
  certificate : Certificate.t;
  reference : Reference.t;
}

let h_of num den s = Complex.div (Sym.eval num s) (Sym.eval den s)

(* A "kept everything" report for the fallback path: the eq. 3 test against
   a numerical reference can never certify epsilon = 0 (the reference itself
   carries interpolation error), so the fallback skips the stage instead of
   running it with an impossible tolerance. *)
let full_sdg_report e =
  let n = Sym.term_count e in
  { Sdg.coefficients = []; total_terms = n; kept_terms = n }

let run ?(config = default_config) ?check circuit ~input ~output
    ~(budget : Budget.t) ~freqs =
  if Array.length freqs = 0 then invalid_arg "Pipeline.run: empty frequency grid";
  Metrics.incr Metrics.simplify_requests;
  let chk () = match check with Some f -> f () | None -> () in
  let acfg =
    { Adaptive.default_config with Adaptive.sigma = config.sigma; r = config.r }
  in
  let reference =
    Trace.span ~cat:"simplify" "simplify.reference" (fun () ->
        Reference.generate ~config:acfg ?check circuit ~input ~output)
  in
  let verify num den =
    Trace.span ~cat:"simplify" "simplify.verify" (fun () ->
        Deviation.measure ~reference:(Reference.eval reference) (h_of num den) freqs)
  in
  (* --- SBG: prune the circuit under its budget share --- *)
  chk ();
  let sbg_cfg =
    {
      Sbg.default_config with
      Sbg.tolerance_db = Budget.sbg_db budget;
      tolerance_deg = Budget.sbg_deg budget;
      shortable = (if config.shorts then Sbg.default_shortable else fun _ -> false);
    }
  in
  let sbg =
    Trace.span ~cat:"simplify" "simplify.sbg" (fun () ->
        Sbg.prune ~config:sbg_cfg circuit ~input ~output ~freqs)
  in
  let symbolic (sbg : Sbg.outcome) =
    let dim = Nodal.dimension (Nodal.make sbg.Sbg.pruned ~input ~output) in
    if dim > Sdet.max_dimension then begin
      Metrics.incr Metrics.simplify_unsupported;
      raise (Symbolic_limit { dim; limit = Sdet.max_dimension })
    end;
    (* --- exact symbolic expression of the pruned circuit --- *)
    chk ();
    let nf =
      Trace.span ~cat:"simplify" "simplify.sdet" (fun () ->
          Sdet.network_function sbg.Sbg.pruned ~input ~output)
    in
    (sbg, dim, nf)
  in
  (* A prune is degenerate when it takes the last capacitor, which leaves
     no frequency scale for the eq. 3 references of the SDG stage, or cuts
     a floating island off from ground: SBG sees the output's response
     unchanged, but the determinant vanishes identically.  Keep the
     unpruned circuit instead: the conservative outcome, with zero SBG
     error by construction. *)
  let sbg, dim, nf =
    match symbolic sbg with
    | _, _, nf
      when sbg.Sbg.pruned != circuit
           && (Sym.term_count nf.Sdet.den = 0
              || Netlist.capacitor_count sbg.Sbg.pruned = 0
                 && Netlist.capacitor_count circuit > 0) ->
        symbolic
          {
            sbg with
            Sbg.pruned = circuit;
            removed = [];
            removals = [];
            error_db = 0.;
            error_deg = 0.;
          }
    | r -> r
  in
  Metrics.add Metrics.simplify_removed_elements (List.length sbg.Sbg.removals);
  let pruned = sbg.Sbg.pruned in
  let exact_num_terms = Sym.term_count nf.Sdet.num in
  let exact_den_terms = Sym.term_count nf.Sdet.den in
  (* --- eq. 3 references for SDG: coefficients of the pruned circuit --- *)
  let pruned_ref =
    Trace.span ~cat:"simplify" "simplify.reference_pruned" (fun () ->
        Reference.generate ~config:acfg ?check pruned ~input ~output)
  in
  let refs (side : Adaptive.result) = Array.map Ef.to_float side.Adaptive.coeffs in
  let num_refs = refs pruned_ref.Reference.num in
  let den_refs = refs pruned_ref.Reference.den in
  let sbg_stage =
    {
      Certificate.stage = "sbg";
      budget_db = Budget.sbg_db budget;
      budget_deg = Budget.sbg_deg budget;
      used_db = sbg.Sbg.error_db;
      used_deg = sbg.Sbg.error_deg;
      removed = List.length sbg.Sbg.removals;
    }
  in
  let finish ~num ~den ~sdg_num ~sdg_den ~sag ~attempts ~fallback ~stages dev =
    let removed_terms =
      exact_num_terms + exact_den_terms - Sym.term_count num - Sym.term_count den
    in
    Metrics.add Metrics.simplify_removed_terms removed_terms;
    {
      exact_num_terms;
      exact_den_terms;
      num;
      den;
      num_terms = Sym.term_count num;
      den_terms = Sym.term_count den;
      elements_before = Netlist.element_count circuit;
      elements_after = Netlist.element_count pruned;
      dim;
      pruned;
      sbg;
      sdg_num;
      sdg_den;
      sag;
      attempts;
      fallback;
      certificate =
        Certificate.of_deviation ~budget_db:budget.Budget.total_db
          ~budget_deg:budget.Budget.total_deg ~attempts ~stages dev;
      reference;
    }
  in
  (* --- SDG + SAG under tighten-and-retry --- *)
  let rec attempt k =
    if k >= config.max_attempts then None
    else begin
      chk ();
      if k > 0 then Metrics.incr Metrics.simplify_retries;
      let scale = Float.pow 0.5 (float_of_int k) in
      let sdg_db = Budget.sdg_db budget *. scale
      and sdg_deg = Budget.sdg_deg budget *. scale
      and sag_db = Budget.sag_db budget *. scale
      and sag_deg = Budget.sag_deg budget *. scale in
      let eps_sdg = Budget.epsilon ~db:sdg_db ~deg:sdg_deg in
      let eps_sag = Budget.epsilon ~db:sag_db ~deg:sag_deg in
      let num', sdg_num =
        Trace.span ~cat:"simplify" "simplify.sdg" (fun () ->
            Sdg.simplify ~epsilon:eps_sdg ~references:num_refs nf.Sdet.num)
      in
      let den', sdg_den =
        Trace.span ~cat:"simplify" "simplify.sdg" (fun () ->
            Sdg.simplify ~epsilon:eps_sdg ~references:den_refs nf.Sdet.den)
      in
      match
        Trace.span ~cat:"simplify" "simplify.sag" (fun () ->
            Sag.simplify ~epsilon:eps_sag ~freqs { Sdet.num = num'; den = den' })
      with
      (* An over-eager truncation can zero the denominator on the grid;
         tighten and retry. *)
      | exception Invalid_argument _ -> attempt (k + 1)
      | nf', sag ->
          let dev = verify nf'.Sdet.num nf'.Sdet.den in
          if
            Deviation.within dev ~db:budget.Budget.total_db
              ~deg:budget.Budget.total_deg
          then begin
            (* Attribute the budget: measure the deviation after SDG alone,
               so the certificate splits the measured error between the two
               term-dropping stages. *)
            let dev_sdg = verify num' den' in
            let stages =
              [
                sbg_stage;
                {
                  Certificate.stage = "sdg";
                  budget_db = sdg_db;
                  budget_deg = sdg_deg;
                  used_db =
                    Float.max 0. (dev_sdg.Deviation.max_db -. sbg.Sbg.error_db);
                  used_deg =
                    Float.max 0. (dev_sdg.Deviation.max_deg -. sbg.Sbg.error_deg);
                  removed =
                    sdg_num.Sdg.total_terms - sdg_num.Sdg.kept_terms
                    + sdg_den.Sdg.total_terms - sdg_den.Sdg.kept_terms;
                };
                {
                  Certificate.stage = "sag";
                  budget_db = sag_db;
                  budget_deg = sag_deg;
                  used_db =
                    Float.max 0.
                      (dev.Deviation.max_db -. dev_sdg.Deviation.max_db);
                  used_deg =
                    Float.max 0.
                      (dev.Deviation.max_deg -. dev_sdg.Deviation.max_deg);
                  removed = sag.Sag.dropped;
                };
              ]
            in
            Some
              (finish ~num:nf'.Sdet.num ~den:nf'.Sdet.den ~sdg_num ~sdg_den ~sag
                 ~attempts:(k + 1) ~fallback:false ~stages dev)
          end
          else attempt (k + 1)
    end
  in
  match attempt 0 with
  | Some result -> result
  | None ->
      (* Fallback: the exact pruned expression.  Its deviation from the
         reference is the SBG residual plus interpolation noise. *)
      Metrics.incr Metrics.simplify_fallbacks;
      chk ();
      let dev = verify nf.Sdet.num nf.Sdet.den in
      let zero_stage name =
        {
          Certificate.stage = name;
          budget_db = 0.;
          budget_deg = 0.;
          used_db = 0.;
          used_deg = 0.;
          removed = 0;
        }
      in
      let sag =
        {
          Sag.total_terms = exact_num_terms + exact_den_terms;
          kept_terms = exact_num_terms + exact_den_terms;
          dropped = 0;
          max_error = 0.;
        }
      in
      finish ~num:nf.Sdet.num ~den:nf.Sdet.den
        ~sdg_num:(full_sdg_report nf.Sdet.num)
        ~sdg_den:(full_sdg_report nf.Sdet.den) ~sag
        ~attempts:(config.max_attempts + 1) ~fallback:true
        ~stages:[ sbg_stage; zero_stage "sdg"; zero_stage "sag" ]
        dev
