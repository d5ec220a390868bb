module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex
module Obs = Symref_obs.Metrics
module Tr = Symref_obs.Trace

type config = {
  sigma : int;
  r : float;
  reduce : bool;
  conj_symmetry : bool;
  max_passes : int;
  dry_passes : int;
  scaling_policy : [ `Split | `Frequency_only ];
  domains : int;
}

let default_config =
  {
    sigma = 6;
    r = 1.0;
    reduce = true;
    conj_symmetry = true;
    max_passes = 64;
    dry_passes = 2;
    scaling_policy = `Split;
    domains = 1;
  }

type band_report = {
  pass : int;
  band : Band.t option;
  scale : Scaling.pair;
  points : int;
  evaluations : int;
  fresh : int;
}

(* What still has to be done, relative to the established set. *)
type objective =
  | Above of int (* tilt up from this established edge *)
  | Below of int (* tilt down from this established edge *)
  | Gap of int * int (* unknown run strictly between two established indices *)
  | Done

type stall =
  | No_stall
  | Stalled_above of int
  | Stalled_below of int
  | Stalled_gap of int * int
  | Peak_lost of int

type diagnosis = {
  stalled : stall;
  dry_pass_total : int;
  last_band : Band.t option;
  singular_retries : int;
  nonfinite_retries : int;
  retry_giveups : int;
}

let clean_diagnosis =
  {
    stalled = No_stall;
    dry_pass_total = 0;
    last_band = None;
    singular_retries = 0;
    nonfinite_retries = 0;
    retry_giveups = 0;
  }

type result = {
  coeffs : Ef.t array;
  established : bool array;
  owners : int array;
  gdeg : int;
  effective_order : int;
  reports : band_report list;
  passes : int;
  evaluations : int;
  max_overlap_mismatch : float;
  converged : bool;
  diagnosis : diagnosis;
}

let run ?(config = default_config) (ev : Evaluator.t) =
  let n = ev.Evaluator.order_bound in
  if n < 0 then invalid_arg "Adaptive.run: negative order bound";
  let gdeg = ev.Evaluator.gdeg in
  ev.Evaluator.restart ();
  let coeffs = Array.make (n + 1) Ef.zero in
  let established = Array.make (n + 1) false in
  let resolved = Array.make (n + 1) false in
  let pass_scale = Hashtbl.create 8 in
  (* pass id -> scale *)
  let owner = Array.make (n + 1) 0 in
  (* pass that established each coefficient *)
  let reports = ref [] in
  let pass_no = ref 0 in
  let mismatch = ref 0. in
  (* Diagnosis accumulators. *)
  let stalled = ref No_stall in
  let dry_total = ref 0 in
  let last_band = ref None in
  let singular_retries = ref 0 in
  let nonfinite_retries = ref 0 in
  let retry_giveups = ref 0 in

  let objective () =
    let est = ref [] in
    for i = n downto 0 do
      if established.(i) then est := i :: !est
    done;
    match !est with
    | [] -> Done (* only reachable when everything resolved to zero *)
    | bottom :: _ ->
        let top = List.fold_left Int.max bottom !est in
        let unresolved p = not (resolved.(p)) in
        let above = List.exists unresolved (List.init (n - top) (fun i -> top + 1 + i)) in
        let below = List.exists unresolved (List.init bottom Fun.id) in
        if above then Above top
        else if below then Below bottom
        else begin
          (* Find the first unresolved index; it lies strictly inside. *)
          let rec find i = if i > n then Done else if unresolved i then inside i else find (i + 1)
          and inside i =
            let rec left j = if established.(j) then j else left (j - 1) in
            let rec right j = if established.(j) then j else right (j + 1) in
            Gap (left i, right i)
          in
          find 0
        end
  in

  (* Peak of the established set as seen at a given normalisation. *)
  let peak_at scale =
    let best = ref None in
    Array.iteri
      (fun i ok ->
        if ok then begin
          let m = Ef.abs (Scaling.normalize ~gdeg scale i coeffs.(i)) in
          match !best with
          | Some (_, bm) when Ef.compare_mag m bm <= 0 -> ()
          | _ -> best := Some (i, m)
        end)
      established;
    !best
  in

  let record_coefficient i value =
    if established.(i) then begin
      let old = coeffs.(i) in
      let denom = if Ef.compare_mag old value >= 0 then old else value in
      if not (Ef.is_zero denom) then begin
        let rel = Ef.to_float (Ef.abs (Ef.div (Ef.sub old value) denom)) in
        if rel > !mismatch then mismatch := rel
      end;
      false
    end
    else begin
      coeffs.(i) <- value;
      established.(i) <- true;
      resolved.(i) <- true;
      owner.(i) <- !pass_no;
      true
    end
  in

  let exec_pass scale ~base ~k =
    incr pass_no;
    Obs.incr Obs.adaptive_passes;
    Tr.span ~cat:"adaptive"
      ~args:
        [
          ("pass", string_of_int !pass_no);
          ("k", string_of_int k);
          ("base", string_of_int base);
          ("evaluator", ev.Evaluator.name);
        ]
      "adaptive.pass"
    @@ fun () ->
    Hashtbl.replace pass_scale !pass_no scale;
    let known =
      if config.reduce then begin
        let acc = ref [] in
        Array.iteri (fun i ok -> if ok then acc := (i, coeffs.(i)) :: !acc) established;
        !acc
      end
      else []
    in
    if known <> [] then Obs.incr Obs.deflated_passes;
    let p =
      Interp.run ~conj_symmetry:config.conj_symmetry ~known ~base
        ~domains:config.domains ev ~scale ~k
    in
    Obs.observe Obs.points_per_pass p.Interp.evaluations;
    singular_retries := !singular_retries + p.Interp.singular_retries;
    nonfinite_retries := !nonfinite_retries + p.Interp.nonfinite_retries;
    retry_giveups := !retry_giveups + p.Interp.retry_giveups;
    (* Validity floor anchored to the pre-deflation values: noise in the
       recovered coefficients is ~1e-13 of the ceiling even when deflation
       removed the dominant part of the polynomial. *)
    let min_mag =
      Ef.mul_float
        (Ef.mul p.Interp.ceiling
           (Ef.of_decimal 1. (Band.noise_exponent + config.sigma)))
        (1. /. float_of_int k)
    in
    let band = Band.detect ~min_mag ~sigma:config.sigma ~base p.Interp.normalized in
    let fresh = ref 0 in
    (match band with
    | None -> ()
    | Some b ->
        for i = b.Band.lo to b.Band.hi do
          let value =
            Scaling.denormalize ~gdeg scale i
              (Ec.re p.Interp.normalized.(i - base))
          in
          (* Deflation (eq. 17) subtracts established coefficients before
             the transform, so a slot that was already known recovers only
             the residual: reconstruct the full value before comparing. *)
          let value =
            if config.reduce && established.(i) then Ef.add coeffs.(i) value
            else value
          in
          if record_coefficient i value then incr fresh
        done);
    reports :=
      {
        pass = !pass_no;
        band;
        scale;
        points = p.Interp.points;
        evaluations = p.Interp.evaluations;
        fresh = !fresh;
      }
      :: !reports;
    last_band := band;
    if !fresh = 0 then begin
      Obs.incr Obs.dry_passes;
      incr dry_total
    end;
    (band, !fresh)
  in

  (* --- First interpolation: heuristic scales, full order (§3.2). *)
  let scale0 = Scaling.initial ev in
  let band0, _ = exec_pass scale0 ~base:0 ~k:(n + 1) in
  (if band0 = None then Array.iteri (fun i _ -> resolved.(i) <- true) resolved);

  (* --- Travel towards the remaining coefficients.  Each tilt is computed
     from the scale of the interpolation that established the travelling
     edge (the paper's "normalising the previous ones", eq. 13). *)
  let scale_of_edge i = Hashtbl.find pass_scale owner.(i) in
  let dry = ref 0 in
  let r_eff = ref config.r in
  let declare_zero_pred pred =
    Array.iteri (fun i r -> if (not r) && pred i then resolved.(i) <- true) resolved
  in
  let converged = ref true in
  let continue_ = ref (objective () <> Done) in
  while !continue_ do
    if !pass_no >= config.max_passes then begin
      converged := false;
      (stalled :=
         match objective () with
         | Done -> No_stall
         | Above top -> Stalled_above top
         | Below bottom -> Stalled_below bottom
         | Gap (l, r) -> Stalled_gap (l, r));
      continue_ := false
    end
    else begin
      (match objective () with
      | Done -> continue_ := false
      | Above top -> (
          let base_scale = scale_of_edge top in
          match peak_at base_scale with
          | None ->
              (* Unreachable in theory (the edge itself is established), but
                 a structured stall beats dying inside a server job. *)
              converged := false;
              stalled := Peak_lost top;
              continue_ := false
          | Some (m, peak_mag) ->
              let edge_mag = Ef.abs (Scaling.normalize ~gdeg base_scale top coeffs.(top)) in
              let scale =
                Scaling.tilt ~policy:config.scaling_policy ~dir:`Up ~r:!r_eff
                  ~edge:top ~edge_mag ~peak:m ~peak_mag base_scale
              in
              let base = if config.reduce then Int.max 0 (top - 1) else 0 in
              let k = n - base + 1 in
              let _, fresh = exec_pass scale ~base ~k in
              if fresh = 0 then begin
                incr dry;
                r_eff := !r_eff *. 1.7;
                if !dry >= config.dry_passes then begin
                  declare_zero_pred (fun i -> i > top);
                  dry := 0;
                  r_eff := config.r
                end
              end
              else begin
                dry := 0;
                r_eff := config.r
              end)
      | Below bottom -> (
          let base_scale = scale_of_edge bottom in
          match peak_at base_scale with
          | None ->
              converged := false;
              stalled := Peak_lost bottom;
              continue_ := false
          | Some (m, peak_mag) ->
              let edge_mag =
                Ef.abs (Scaling.normalize ~gdeg base_scale bottom coeffs.(bottom))
              in
              let scale =
                Scaling.tilt ~policy:config.scaling_policy ~dir:`Down ~r:!r_eff
                  ~edge:bottom ~edge_mag ~peak:m ~peak_mag base_scale
              in
              let base = 0 in
              let k = if config.reduce then Int.min n (bottom + 1) + 1 else n + 1 in
              let _, fresh = exec_pass scale ~base ~k in
              if fresh = 0 then begin
                incr dry;
                r_eff := !r_eff *. 1.7;
                if !dry >= config.dry_passes then begin
                  declare_zero_pred (fun i -> i < bottom);
                  dry := 0;
                  r_eff := config.r
                end
              end
              else begin
                dry := 0;
                r_eff := config.r
              end)
      | Gap (left, right) ->
          let s1 = Hashtbl.find pass_scale owner.(left)
          and s2 = Hashtbl.find pass_scale owner.(right) in
          let scale = Scaling.gap_fill s1 s2 in
          let base = if config.reduce then left else 0 in
          let k = if config.reduce then right - base + 1 else n + 1 in
          let _, fresh = exec_pass scale ~base ~k in
          if fresh = 0 then begin
            incr dry;
            if !dry >= config.dry_passes then begin
              declare_zero_pred (fun i -> i > left && i < right);
              dry := 0
            end
          end
          else dry := 0);
      if objective () = Done then continue_ := false
    end
  done;
  if not !converged then Array.iteri (fun i _ -> resolved.(i) <- true) resolved;

  let effective_order =
    let rec go i =
      if i < 0 then 0
      else if established.(i) && not (Ef.is_zero coeffs.(i)) then i
      else go (i - 1)
    in
    go n
  in
  let evaluations = Evaluator.eval_count ev in
  {
    coeffs;
    established;
    owners = owner;
    gdeg;
    effective_order;
    reports = List.rev !reports;
    passes = !pass_no;
    evaluations;
    max_overlap_mismatch = !mismatch;
    converged = !converged;
    diagnosis =
      {
        stalled = !stalled;
        dry_pass_total = !dry_total;
        last_band = !last_band;
        singular_retries = !singular_retries;
        nonfinite_retries = !nonfinite_retries;
        retry_giveups = !retry_giveups;
      };
  }

let coefficient_ratios result =
  let n = Array.length result.coeffs in
  Array.init (Int.max 0 (n - 1)) (fun i ->
      if
        result.established.(i)
        && result.established.(i + 1)
        && (not (Ef.is_zero result.coeffs.(i)))
        && not (Ef.is_zero result.coeffs.(i + 1))
      then Ef.log10_abs result.coeffs.(i + 1) -. Ef.log10_abs result.coeffs.(i)
      else Float.nan)
