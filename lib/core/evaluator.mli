(** The evaluation-side interface of the interpolation engines.

    An evaluator computes one scaled network-function polynomial
    [P'(s) = sum_i p_i f^i g^(gdeg - i) s^i] at arbitrary complex points —
    in practice by assembling the scaled nodal matrix and running a sparse
    LU (eqs. 7-10), but the engines only see this record, which keeps them
    testable against synthetic polynomials with known coefficients. *)

type t = {
  eval : f:float -> g:float -> Complex.t -> Symref_numeric.Extcomplex.t;
      (** Value of the scaled polynomial at a point. *)
  prefetch : (f:float -> g:float -> Complex.t array -> unit) option;
      (** Warm the evaluator for a whole batch of points before the
          per-point [eval] calls — {!of_nodal_shared} backs this with the
          batched structure-of-arrays kernel
          ({!Symref_mna.Nodal.eval_batch}), computing every not-yet-memoised
          point of the batch in one elimination-program replay and seeding
          the memo table.  Purely a cost hook: values, fault-hook firing
          order and the memo-miss count are bit-identical with or without
          it, and [None] (synthetic and unshared evaluators, or batching
          disabled) simply means per-point evaluation.  Callers must pass
          the exact point values they will evaluate — the memo key is the
          (f, g, re, im) quadruple. *)
  restart : unit -> unit;
      (** Return the evaluator to its starting state before a run:
          {!Adaptive.run} and {!Verify.check} call it first.  The nodal
          constructors restart the problem's pattern chain
          ({!Symref_mna.Nodal.restart}), so the factorisation pattern a
          scale pair gets — and with it the last bits of every value —
          depends only on the run's own sequence of scale pairs.  A no-op
          for synthetic evaluators. *)
  gdeg : int;
      (** Conductance-homogeneity degree: the [s^i] coefficient carries
          [g^(gdeg - i)] under conductance scaling (eq. 11). *)
  order_bound : int;
      (** Upper estimate of the polynomial order (number of capacitors
          capped by the matrix dimension, paper §2.1). *)
  f0 : float;  (** heuristic first frequency scale: [1 / mean C] (§3.2) *)
  g0 : float;  (** heuristic first conductance scale: [1 / mean G] (§3.2) *)
  name : string;  (** for reports: ["num"], ["den"], ... *)
  counter : int Atomic.t;
      (** Incremented on every [eval] call by the smart constructors below;
          each call is one LU decomposition when the evaluator comes from
          {!of_nodal} — the paper's cost metric.  Atomic so multi-domain
          interpolation ({!Interp.run}[ ~domains]) counts exactly. *)
  guarded : bool;
      (** [true] when a zero value may mean a {e failed factorisation}
          (singular matrix at that point) rather than a true polynomial
          value — the nodal constructors.  {!Interp.run} retries such
          evaluations at perturbed points; synthetic {!of_epoly} evaluators
          are unguarded, so legitimate roots on the unit circle are never
          perturbed. *)
  kernel : bool;
      (** [true] when evaluations may run through the fused unboxed
          refactor+solve kernel ({!Symref_linalg.Kernel}) — a pure cost
          property ({!Symref_mna.Nodal.kernel_enabled}); results are
          bit-identical either way.  Surfaced in trace spans and bench
          reports. *)
}

val of_nodal : Symref_mna.Nodal.t -> num:bool -> t
(** The numerator ([num:true]) or denominator evaluator of a prepared nodal
    problem.  Each call performs one sparse LU factorisation (and solve, for
    the numerator). *)

type shared = {
  snum : t;  (** numerator evaluator over the shared table *)
  sden : t;  (** denominator evaluator over the shared table *)
  factorizations : unit -> int;
      (** distinct (f, g, s) points actually factorised so far *)
  hits : unit -> int;  (** evaluations served from the table *)
}

val batch_default : bool
(** [true] unless the [SYMREF_NO_BATCH] environment variable is set — the
    default for {!of_nodal_shared}'s [?batch].  Like [SYMREF_NO_KERNEL],
    a pure cost switch for A/B gating outside the API: per-point results
    are bit-identical either way. *)

val of_nodal_shared : ?batch:bool -> Symref_mna.Nodal.t -> shared
(** Numerator and denominator evaluators drawing from one memoised
    {!Symref_mna.Nodal.eval} per (f, g, s): one factorisation already yields
    both values (eqs. 8-10), so every interpolation point the two adaptive
    runs share — the whole first pass in particular — is factorised once
    instead of twice.  Thread-safe; per-evaluator call counters keep the
    paper's cost metric unchanged.

    [batch] (default {!batch_default}) backs the evaluators' [prefetch]
    hook with {!Symref_mna.Nodal.eval_batch}, so an interpolation pass that
    prefetches its point set replays the elimination program once per
    chunk instead of once per point.  With batching the memo-hit/miss
    {e split} shifts — prefetched points are misses up front, the [eval]
    calls then all hit — but the miss count (= factorisations, the paper's
    cost metric) and every computed value stay identical. *)

val of_epoly :
  ?name:string -> gdeg:int -> f0:float -> g0:float -> Symref_poly.Epoly.t -> t
(** Synthetic evaluator around known extended-range coefficients, applying
    the homogeneous scaling law exactly — the engines' unit-test oracle. *)

val eval_count : t -> int
(** [!(t.counter)]. *)
