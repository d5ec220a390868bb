(* The batched structure-of-arrays engine — the only replay engine: per-point
   bit-identity against the boxed refactor+det+solve chain, eject parity
   with the threshold floor, the determinant at the exponent edges,
   allocation-freedom of the steady-state batch, workspace-reuse
   invariance, fault-injection parity with the hook interleaved mid-batch
   and across whole reference runs, the no-double-count accounting of
   kernel.batch_ejects, and that the reference path replays nothing per
   point.

   "Bit-identical" is literal: comparisons go through [Int64.bits_of_float],
   so even NaN payloads and [-0.] must match. *)

module Sparse = Symref_linalg.Sparse
module Kernel = Symref_linalg.Kernel
module Batch = Symref_linalg.Kernel.Batch
module Ec = Symref_numeric.Extcomplex
module Ef = Symref_numeric.Extfloat
module Nodal = Symref_mna.Nodal
module Evaluator = Symref_core.Evaluator
module Adaptive = Symref_core.Adaptive
module Reference = Symref_core.Reference
module Verify = Symref_core.Verify
module Random_net = Symref_circuit.Random_net
module Ladder = Symref_circuit.Rc_ladder
module Ua741 = Symref_circuit.Ua741
module Uc = Symref_dft.Unit_circle
module Inject = Symref_fault.Inject
module BA1 = Bigarray.Array1

let bits = Int64.bits_of_float

let ec_bits_equal (a : Ec.t) (b : Ec.t) =
  bits a.Ec.c.Complex.re = bits b.Ec.c.Complex.re
  && bits a.Ec.c.Complex.im = bits b.Ec.c.Complex.im
  && a.Ec.e = b.Ec.e

(* Deterministic LCG so every run exercises the same matrices. *)
let lcg seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_float (Int64.shift_right_logical !state 11)
    /. 9007199254740992.0

let random_system rand n =
  let b = Sparse.create n in
  for i = 0 to n - 1 do
    (* Strong diagonal so replays at perturbed values rarely bail — the
       eject-parity case is covered separately below. *)
    Sparse.add b i i
      { Complex.re = 2. +. rand (); im = 1. +. rand () };
    let offs = 1 + (int_of_float (rand () *. 3.) mod 3) in
    for _ = 1 to offs do
      let j = int_of_float (rand () *. float_of_int n) mod n in
      if j <> i then
        Sparse.add b i j
          { Complex.re = (rand () -. 0.5) *. 0.8; im = (rand () -. 0.5) *. 0.8 }
    done
  done;
  let rhs =
    Array.init n (fun _ ->
        { Complex.re = rand () -. 0.5; im = rand () -. 0.5 })
  in
  (b, rhs)

let problem_of seed nodes =
  let circuit = Random_net.circuit ~seed ~nodes () in
  Nodal.make circuit ~input:(Nodal.Vsrc_element "vin")
    ~output:(Nodal.Out_node (Random_net.output_node ~seed ~nodes))

let value_bits_equal (a : Nodal.value) (b : Nodal.value) =
  ec_bits_equal a.Nodal.den b.Nodal.den
  && ec_bits_equal a.Nodal.num b.Nodal.num
  && bits a.Nodal.h.Complex.re = bits b.Nodal.h.Complex.re
  && bits a.Nodal.h.Complex.im = bits b.Nodal.h.Complex.im
  && a.Nodal.singular = b.Nodal.singular

(* --- Sparse-level: batched = boxed refactor+det+solve, per point --------- *)

(* Scatter one value assignment into column [q] of the batch planes, and
   the same RHS for every point (value variation is what matters; the RHS
   forward elimination is folded into the same inner loops). *)
let scatter_point b prog q vals (rhs : Complex.t array) =
  let stride = Batch.stride b in
  let wre = Batch.matrix_re b and wim = Batch.matrix_im b in
  let yre = Batch.rhs_re b and yim = Batch.rhs_im b in
  Array.iteri
    (fun e (v : Complex.t) ->
      let sl = prog.Kernel.coo_slot.(e) in
      BA1.set wre ((sl * stride) + q) v.Complex.re;
      BA1.set wim ((sl * stride) + q) v.Complex.im)
    vals;
  Array.iteri
    (fun r (v : Complex.t) ->
      BA1.set yre ((r * stride) + q) v.Complex.re;
      BA1.set yim ((r * stride) + q) v.Complex.im)
    rhs

let prop_sparse_batch_identity =
  QCheck2.Test.make
    ~name:"batched = boxed bitwise on random sparse systems" ~count:30
    QCheck2.Gen.(triple (int_range 1 100_000) (int_range 3 14) (int_range 1 9))
    (fun (seed, n, cnt) ->
      let rand = lcg seed in
      let b, rhs = random_system rand n in
      match Sparse.symbolic b with
      | None -> true
      | Some (pat, _) ->
          let coords = Sparse.pattern_coords pat in
          let dense = Sparse.to_dense b in
          let base = Array.map (fun (i, j) -> dense.(i).(j)) coords in
          let prog = Sparse.pattern_program pat in
          (* Per-point value assignments: the first is the base system, the
             rest perturb it — including a decade-scaled one so some points
             of a batch bail while others don't. *)
          let per_point =
            Array.init cnt (fun q ->
                if q = 0 then base
                else
                  let scale = if q mod 3 = 2 then 1e-7 else 0.5 +. rand () in
                  Array.map
                    (fun (v : Complex.t) ->
                      {
                        Complex.re = v.Complex.re *. scale;
                        im = v.Complex.im *. (scale *. (0.5 +. rand ()));
                      })
                    base)
          in
          let bt = Batch.create prog in
          Batch.begin_batch bt cnt;
          Array.iteri (fun q vals -> scatter_point bt prog q vals rhs) per_point;
          Batch.run bt;
          let stride = Batch.stride bt in
          let xr = Batch.solution_re bt and xi = Batch.solution_im bt in
          Array.for_all Fun.id
            (Array.mapi
               (fun q vals ->
                 match Sparse.refactor pat vals with
                 | None -> Batch.ejected bt q
                 | Some factor ->
                     (not (Batch.ejected bt q))
                     && ec_bits_equal (Sparse.det factor) (Batch.det bt q)
                     && Ec.is_zero (Sparse.det factor) = Batch.det_is_zero bt q
                     && (Batch.det_is_zero bt q
                        ||
                        let x = Sparse.solve factor rhs in
                        Array.for_all Fun.id
                          (Array.mapi
                             (fun j (v : Complex.t) ->
                               bits v.Complex.re
                               = bits (BA1.get xr ((j * stride) + q))
                               && bits v.Complex.im
                                  = bits (BA1.get xi ((j * stride) + q)))
                             x)))
               per_point))

(* --- Nodal-level: eval_batch = per-point eval on random circuits --------- *)

let batch_matches_per_point p ~f ~g points =
  let vb = Nodal.eval_batch ~f ~g p points in
  Array.length vb = Array.length points
  && Array.for_all Fun.id
       (Array.mapi
          (fun i s -> value_bits_equal vb.(i) (Nodal.eval ~f ~g p s))
          points)

let prop_nodal_batch_identity =
  QCheck2.Test.make
    ~name:"eval_batch = eval bitwise on random circuits" ~count:20
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 3 14))
    (fun (seed, nodes) ->
      let p = problem_of seed nodes in
      let f, g = Nodal.first_scales p in
      let k = Int.max 4 (Nodal.order_bound p + 1) in
      let all = Array.init k (fun j -> Uc.point k j) in
      (* Full circle, a single point, and the odd/even conjugate halves a
         conj-symmetric pass would batch. *)
      batch_matches_per_point p ~f ~g all
      && batch_matches_per_point p ~f ~g [| all.(0) |]
      && batch_matches_per_point p ~f ~g
           (Array.init ((k / 2) + 1) (fun j -> all.(j)))
      && batch_matches_per_point p ~f ~g
           (Array.init (k / 2) (fun j -> all.(j)))
      (* A second scale pair exercises pattern relearning + batch reuse. *)
      && batch_matches_per_point p ~f:(2. *. f) ~g all)

(* --- zero allocation per batch ------------------------------------------- *)

let test_zero_alloc_batch () =
  (* Once the planes are grown, a full batch — scatter, one program replay
     over all points, back substitution — allocates zero heap words. *)
  let rand = lcg 99 in
  let b, rhs = random_system rand 16 in
  match Sparse.symbolic b with
  | None -> Alcotest.fail "symbolic factorisation unexpectedly failed"
  | Some (pat, _) ->
      let coords = Sparse.pattern_coords pat in
      let dense = Sparse.to_dense b in
      let m = Array.length coords in
      let prog = Sparse.pattern_program pat in
      let cnt = 32 in
      let slot = prog.Kernel.coo_slot in
      let vre = Array.init m (fun e -> (dense.(fst coords.(e)).(snd coords.(e))).Complex.re)
      and vim = Array.init m (fun e -> (dense.(fst coords.(e)).(snd coords.(e))).Complex.im) in
      let rre = Array.map (fun (v : Complex.t) -> v.Complex.re) rhs
      and rim = Array.map (fun (v : Complex.t) -> v.Complex.im) rhs in
      let bt = Batch.create prog in
      let batch () =
        Batch.begin_batch bt cnt;
        let stride = Batch.stride bt in
        let wre = Batch.matrix_re bt and wim = Batch.matrix_im bt in
        let yre = Batch.rhs_re bt and yim = Batch.rhs_im bt in
        for e = 0 to m - 1 do
          let base = slot.(e) * stride in
          for q = 0 to cnt - 1 do
            BA1.set wre (base + q) (vre.(e) *. (1. +. (0.001 *. float_of_int q)));
            BA1.set wim (base + q) vim.(e)
          done
        done;
        for r = 0 to Array.length rre - 1 do
          let base = r * stride in
          for q = 0 to cnt - 1 do
            BA1.set yre (base + q) rre.(r);
            BA1.set yim (base + q) rim.(r)
          done
        done;
        Batch.run bt
      in
      (* Warm up: grows the planes to [cnt] and sanity-checks the solve. *)
      batch ();
      Alcotest.(check bool) "warm-up batch solves" false (Batch.det_is_zero bt 0);
      Alcotest.(check bool) "warm-up batch ejects nothing" false
        (Batch.ejected bt (cnt - 1));
      let probe iters =
        let before = Gc.minor_words () in
        for _ = 1 to iters do
          batch ()
        done;
        Gc.minor_words () -. before
      in
      Alcotest.(check (float 0.)) "100 batches allocate zero words" 0.
        (probe 100);
      Alcotest.(check (float 0.)) "200 batches allocate zero words" 0.
        (probe 200)

(* --- chaos: sparse.singular armed mid-batch ------------------------------ *)

let with_registry f = Fun.protect ~finally:Inject.disable f

let test_chaos_batch_parity () =
  with_registry (fun () ->
      (* An armed plan whose window opens mid-batch: the batched sweep must
         consume hook hits in point order — ejecting exactly the injected
         points to the boxed path — and reproduce the sequential per-point
         sweep bit for bit, hits and fires included. *)
      let sweep ~how =
        Inject.enable ~seed:7 ();
        Inject.arm Inject.sparse_singular
          (Inject.Times { skip = 3; count = 4 });
        let p = problem_of 4242 10 in
        let f, g = Nodal.first_scales p in
        let k = Int.max 4 (Nodal.order_bound p + 1) in
        let points = Array.init k (fun j -> Uc.point k j) in
        let vs =
          match how with
          | `Batch -> Nodal.eval_batch ~f ~g p points
          | `Point -> Array.map (fun s -> Nodal.eval ~f ~g p s) points
        in
        let consumed =
          (Inject.hits Inject.sparse_singular, Inject.fired Inject.sparse_singular)
        in
        (vs, consumed)
      in
      let vb, cb = sweep ~how:`Batch in
      let vp, cp = sweep ~how:`Point in
      Alcotest.(check (pair int int)) "hook consumption identical" cp cb;
      Alcotest.(check bool) "the plan actually fired" true (snd cb > 0);
      Array.iteri
        (fun j a ->
          Alcotest.(check bool)
            (Printf.sprintf "faulted point %d bit-identical" j)
            true
            (value_bits_equal a vp.(j)))
        vb)

(* --- eject accounting ---------------------------------------------------- *)

let test_batch_counters () =
  let module Obs = Symref_obs.Metrics in
  let module Snapshot = Symref_obs.Snapshot in
  let sweep () =
    let p = problem_of 99 8 in
    let f, g = Nodal.first_scales p in
    let k = Int.max 4 (Nodal.order_bound p + 1) in
    let points = Array.init k (fun j -> Uc.point k j) in
    ignore (Nodal.eval_batch ~f ~g p points);
    k
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      (* Clean sweep: every point batch-served, nothing ejected. *)
      let k = sweep () in
      let s = Snapshot.capture () in
      Alcotest.(check int) "every point batch-served" k
        s.Snapshot.kernel_batch_points;
      Alcotest.(check int) "batch points count as replays"
        s.Snapshot.lu_refactor s.Snapshot.kernel_batch_points;
      Alcotest.(check int) "no ejects" 0 s.Snapshot.kernel_batch_ejects;
      Alcotest.(check int) "no kernel fallbacks" 0 s.Snapshot.kernel_fallbacks;
      (* Injected sweep: each fired point is ejected and counted exactly
         once under kernel.fallback = kernel.batch_ejects; served + ejected
         still covers every point, so nothing is double-counted. *)
      Obs.reset ();
      with_registry (fun () ->
          Inject.enable ~seed:1 ();
          Inject.arm Inject.sparse_singular (Inject.Times { skip = 1; count = 2 });
          let k = sweep () in
          let fired = Inject.fired Inject.sparse_singular in
          let s = Snapshot.capture () in
          Alcotest.(check bool) "the plan actually fired" true (fired > 0);
          Alcotest.(check int) "ejects = kernel fallbacks"
            s.Snapshot.kernel_fallbacks s.Snapshot.kernel_batch_ejects;
          Alcotest.(check int) "served + ejected = points" k
            (s.Snapshot.kernel_batch_points + s.Snapshot.kernel_batch_ejects);
          (* Injected ejects are not threshold fallbacks, so lu.refactor
             plus the full-factorisation count must still cover the sweep:
             the fired points went straight to Sparse.factor. *)
          Alcotest.(check bool) "ejected points were factorised from scratch"
            true
            (s.Snapshot.lu_factor >= s.Snapshot.kernel_batch_ejects)))

(* --- eject parity with the threshold floor -------------------------------- *)

(* One batch over a learned pattern, every point a full value assignment
   in [Sparse.pattern_coords] order, all with the same right-hand side. *)
let run_batch pat (rhs : Complex.t array) per_point =
  let prog = Sparse.pattern_program pat in
  let bt = Batch.create prog in
  Batch.begin_batch bt (Array.length per_point);
  Array.iteri (fun q vals -> scatter_point bt prog q vals rhs) per_point;
  Batch.run bt;
  bt

let test_eject_parity () =
  (* Degrade the diagonal towards zero until the threshold floor trips:
     one batch holds every degradation step, and a point must eject on
     exactly the value assignments the boxed refactor rejects. *)
  let rand = lcg 777 in
  let b, rhs = random_system rand 8 in
  match Sparse.symbolic b with
  | None -> Alcotest.fail "symbolic factorisation unexpectedly failed"
  | Some (pat, _) ->
      let coords = Sparse.pattern_coords pat in
      let dense = Sparse.to_dense b in
      let base = Array.map (fun (i, j) -> dense.(i).(j)) coords in
      let scales = [| 1.; 0.1; 1e-3; 1e-6; 1e-9; 1e-12; 0. |] in
      let per_point =
        Array.map
          (fun scale ->
            Array.mapi
              (fun e (v : Complex.t) ->
                let i, j = coords.(e) in
                if i = j then
                  { Complex.re = v.Complex.re *. scale; im = v.Complex.im *. scale }
                else v)
              base)
          scales
      in
      let bt = run_batch pat rhs per_point in
      let ejects = ref 0 in
      Array.iteri
        (fun q vals ->
          let boxed = Sparse.refactor pat vals in
          Alcotest.(check bool)
            (Printf.sprintf "scale %g: eject parity" scales.(q))
            (boxed = None) (Batch.ejected bt q);
          if Batch.ejected bt q then incr ejects)
        per_point;
      Alcotest.(check bool) "the sweep actually ejected points" true (!ejects > 0);
      Alcotest.(check bool) "and kept some" true (!ejects < Array.length scales)

(* --- the determinant across the exponent range ---------------------------- *)

(* One-by-one systems put each point's value straight into the pivot, so the
   determinant's mantissa/exponent split (the stub's [frexp_exp] and
   [scale2]) and the back substitution see the value as-is. *)
let scalar_pattern =
  lazy
    (let b = Sparse.create 1 in
     Sparse.add b 0 0 Complex.one;
     match Sparse.symbolic b with
     | Some (pat, _) -> pat
     | None -> failwith "1x1 symbolic factorisation failed")

let scalar_batch_matches values =
  let pat = Lazy.force scalar_pattern in
  let rhs = [| Complex.one |] in
  let bt = run_batch pat rhs (Array.map (fun v -> [| v |]) values) in
  Array.for_all Fun.id
    (Array.mapi
       (fun q v ->
         match Sparse.refactor pat [| v |] with
         | None -> Batch.ejected bt q
         | Some factor ->
             let x = (Sparse.solve factor rhs).(0) in
             (not (Batch.ejected bt q))
             && ec_bits_equal (Sparse.det factor) (Batch.det bt q)
             && bits x.Complex.re = bits (BA1.get (Batch.solution_re bt) q)
             && bits x.Complex.im = bits (BA1.get (Batch.solution_im bt) q))
       values)

let prop_det_exponent_range =
  let component =
    QCheck2.Gen.(
      oneof
        [
          float_bound_exclusive 1e308;
          (* deep subnormals and huge values via exponent sampling *)
          map3
            (fun m e neg -> (if neg then Float.neg else Fun.id) (Float.ldexp m e))
            (float_bound_exclusive 1.) (int_range (-1080) 1024) bool;
          return 0.;
        ])
  in
  QCheck2.Test.make ~name:"batched det = boxed det: full exponent range"
    ~count:200
    QCheck2.Gen.(
      array_size (int_range 1 40)
        (map2 (fun re im -> { Complex.re; im }) component component))
    scalar_batch_matches

let test_det_exponent_edges () =
  let edges =
    [
      min_float;
      max_float;
      Float.ldexp 1. (-1074) (* smallest subnormal *);
      Float.ldexp 1. (-1022);
      Float.ldexp 0.75 (-1060);
      1.;
      0.5;
      2.;
      0x1p512;
      0x1p-512;
      1e-300;
      1e300;
      Float.pi;
    ]
  in
  let values =
    Array.of_list
      (List.concat_map
         (fun a ->
           [
             { Complex.re = a; im = 0. };
             { Complex.re = -.a; im = 0. };
             { Complex.re = 0.; im = a };
             { Complex.re = a; im = a *. 0.5 };
           ])
         edges)
  in
  Alcotest.(check bool) "every edge pivot bit-identical" true
    (scalar_batch_matches values)

(* --- workspace reuse ------------------------------------------------------ *)

let ua741_problem () =
  Nodal.make Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

let test_workspace_reuse_invariance () =
  (* The same pooled batch workspace serves many point sets and passes:
     replaying a set later — after the planes held other data, of another
     size — must reproduce the first visit bit for bit. *)
  let p = ua741_problem () in
  let f, g = Nodal.first_scales p in
  let k = Nodal.order_bound p + 1 in
  let points = Array.init k (fun j -> Uc.point k j) in
  let first = Nodal.eval_batch ~f ~g p points in
  (* Interleave other work: a larger set off the circle at the same scale
     (grows the planes), then another scale pair. *)
  ignore
    (Nodal.eval_batch ~f ~g p
       (Array.init (2 * k) (fun j -> Complex.mul { Complex.re = 0.9; im = 0. } (Uc.point (2 * k) j))));
  ignore (Nodal.eval_batch ~f:(3. *. f) ~g:(2. *. g) p (Array.sub points 0 ((k / 2) + 1)));
  let again = Nodal.eval_batch ~f ~g p points in
  Array.iteri
    (fun j v ->
      Alcotest.(check bool)
        (Printf.sprintf "point %d replays bit-identically" j)
        true
        (value_bits_equal v again.(j)))
    first

(* --- the reference path replays nothing per point ------------------------- *)

let ladder_io = (Nodal.Vsrc_element "vin", Nodal.Out_node Ladder.output_node)

let test_counter_pin () =
  (* Generation and health hand every point set to the batch: each numeric
     replay is a batch point, each fallback a batch eject. *)
  let module Obs = Symref_obs.Metrics in
  let module Snapshot = Symref_obs.Snapshot in
  let pin name circuit ~input ~output =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let r = Reference.generate circuit ~input ~output in
        ignore (Reference.health r);
        let s = Snapshot.capture () in
        Alcotest.(check bool) (name ^ ": batch served points") true
          (s.Snapshot.kernel_batch_points > 0);
        Alcotest.(check int) (name ^ ": lu.refactor = kernel.batch_points")
          s.Snapshot.kernel_batch_points s.Snapshot.lu_refactor;
        Alcotest.(check int) (name ^ ": kernel.fallback = kernel.batch_ejects")
          s.Snapshot.kernel_batch_ejects s.Snapshot.kernel_fallbacks)
  in
  pin "ua741" Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output);
  let input, output = ladder_io in
  pin "ladder-48" (Ladder.circuit 48) ~input ~output

(* --- health through batched probes = per-point Verify.check --------------- *)

let test_health_identity () =
  let same name circuit ~input ~output =
    let r = Reference.generate circuit ~input ~output in
    let h = Reference.health r in
    let check side result =
      Verify.check (Evaluator.of_nodal r.Reference.problem ~num:side) result
    in
    let vn = check true r.Reference.num and vd = check false r.Reference.den in
    Alcotest.(check int) (name ^ ": probes") (vn.Verify.probes + vd.Verify.probes)
      h.Reference.probes;
    Alcotest.(check int64)
      (name ^ ": max_residual bits")
      (bits (Float.max vn.Verify.max_relative_residual vd.Verify.max_relative_residual))
      (bits h.Reference.max_residual);
    Alcotest.(check bool) (name ^ ": verified")
      (vn.Verify.passed && vd.Verify.passed)
      h.Reference.verified
  in
  same "ua741" Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output);
  let input, output = ladder_io in
  same "ladder-64" (Ladder.circuit 64) ~input ~output

(* --- fault parity over whole reference runs ------------------------------- *)

let coeff_bits (r : Adaptive.result) =
  Array.map (fun c -> Ef.to_string c) r.Adaptive.coeffs

let test_fault_parity () =
  (* With sparse.singular armed, a reference generated through the batched
     prefetches equals the same shared evaluators run with [prefetch =
     None]: the batch consumes hook hits in point order, so both runs fail
     the same evaluations and recover them the same way. *)
  let parity name circuit ~input ~output plan =
    with_registry (fun () ->
        let arm () =
          Inject.enable ~seed:1 ();
          Inject.arm Inject.sparse_singular plan
        in
        arm ();
        let r = Reference.generate circuit ~input ~output in
        let batched_fires = Inject.fired Inject.sparse_singular in
        arm ();
        let s = Evaluator.of_nodal_shared (Nodal.make circuit ~input ~output) in
        let per_point (ev : Evaluator.t) = { ev with Evaluator.prefetch = None } in
        let num = Adaptive.run (per_point s.Evaluator.snum) in
        let den = Adaptive.run (per_point s.Evaluator.sden) in
        Alcotest.(check bool) (name ^ ": the plan fired") true (batched_fires > 0);
        Alcotest.(check int) (name ^ ": fires") batched_fires
          (Inject.fired Inject.sparse_singular);
        Alcotest.(check (array string)) (name ^ ": numerator") (coeff_bits num)
          (coeff_bits r.Reference.num);
        Alcotest.(check (array string)) (name ^ ": denominator") (coeff_bits den)
          (coeff_bits r.Reference.den))
  in
  let ua name plan =
    parity name Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output) plan
  in
  ua "ua741 skip=5,count=3" (Inject.Times { skip = 5; count = 3 });
  ua "ua741 every=13" (Inject.Every 13);
  ua "ua741 every=3" (Inject.Every 3);
  ua "ua741 skip=0,count=40" (Inject.Times { skip = 0; count = 40 });
  (* Under [dune runtest] the suite runs in _build/default/test; CI also
     runs this group with [dune exec] from the repository root. *)
  let sallen_key =
    List.find Sys.file_exists
      [ "../examples/netlists/sallen_key.cir"; "examples/netlists/sallen_key.cir" ]
  in
  parity "sallen_key skip=2,count=3"
    (Symref_spice.Parser.parse_file sallen_key)
    ~input:(Nodal.Vsrc_element "v1") ~output:(Nodal.Out_node "out")
    (Inject.Times { skip = 2; count = 3 })

let suite =
  [
    ( "batch",
      [
        QCheck_alcotest.to_alcotest prop_sparse_batch_identity;
        QCheck_alcotest.to_alcotest prop_nodal_batch_identity;
        Alcotest.test_case "threshold eject parity" `Quick test_eject_parity;
        QCheck_alcotest.to_alcotest prop_det_exponent_range;
        Alcotest.test_case "det at exponent edges" `Quick test_det_exponent_edges;
        Alcotest.test_case "zero allocation per batch" `Quick
          test_zero_alloc_batch;
        Alcotest.test_case "workspace reuse invariance" `Quick
          test_workspace_reuse_invariance;
        Alcotest.test_case "chaos: sparse.singular armed mid-batch" `Quick
          test_chaos_batch_parity;
        Alcotest.test_case "batch counters and eject accounting" `Quick
          test_batch_counters;
        Alcotest.test_case "reference path: no per-point replay" `Quick
          test_counter_pin;
        Alcotest.test_case "health = per-point Verify.check" `Quick
          test_health_identity;
        Alcotest.test_case "fault parity: prefetch on = off" `Quick
          test_fault_parity;
      ] );
  ]
