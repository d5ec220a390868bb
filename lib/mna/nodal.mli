(** Nodal formulation for reference generation.

    This is the evaluation back-end of the interpolation engines: it
    evaluates the network-function numerator and denominator of a circuit at
    an arbitrary complex frequency [s] under the paper's frequency and
    conductance scaling (eq. 11):

    - conductance-dimensioned values (G, 1/R, gm) are multiplied by [g];
    - capacitances are multiplied by [f] (equivalently [s -> f*s]).

    Restricted to the {e nodal class} (G/R/C/VCCS/I sources) plus {e driven}
    voltage inputs, which are eliminated from the system.  Within this class
    every determinant monomial of the [s^i] coefficient contains exactly
    [gdeg - i] conductance factors, so denormalisation is the exact inverse
    [p_i = p'_i * f^(-i) * g^(i - gdeg)] — the property eq. 11 relies on.

    The denominator is [D(s) = det A(s)] (eq. 9) with [A] the reduced nodal
    matrix; [H(s)] comes from one sparse LU solve (eq. 8) and the numerator
    is recovered as [N(s) = H(s) * D(s)] (eq. 10). *)

type input =
  | Vsrc_element of string
      (** Drive through the named grounded voltage source already present in
          the netlist (it is removed and its non-ground node driven with
          its AC magnitude). *)
  | V_single of string  (** Unit voltage at the named node. *)
  | V_diff of string * string
      (** Differential drive [+1/2], [-1/2] — the paper's differential
          voltage gain convention, so that [H = vo / (vi+ - vi-)]. *)
  | V_common of string * string
      (** Both nodes driven with [+1] — the common-mode companion of
          [V_diff], for CMRR studies. *)
  | I_single of string  (** Unit AC current injected into the named node. *)

type output =
  | Out_node of string
  | Out_diff of string * string  (** [v(first) - v(second)]. *)

type t
(** A prepared transfer-function evaluation problem. *)

exception Unsupported of string
(** Raised by {!make} when the circuit leaves the nodal class (inductors,
    VCVS/CCCS/CCVS, floating or extra voltage sources) or refers to unknown
    nodes/elements. *)

val make :
  ?reuse:bool ->
  Symref_circuit.Netlist.t ->
  input:input ->
  output:output ->
  t
(** [reuse] (default [true]) enables the symbolic/numeric factorisation
    split: the Markowitz ordering of the reduced matrix is learned once per
    circuit and every evaluation replays only the numeric elimination,
    falling back to a full from-scratch factorisation whenever a reused
    pivot hits the threshold-pivoting floor.  The ordering is learned at
    the anchor scale [(1 / mean C, 1 / mean G)] and carried from scale pair
    to scale pair while its pivots pass the threshold floor at the
    canonical point [s = i]; only a rejected pivot re-learns it at the new
    pair (see {!restart}).
    [~reuse:false] restores the factor-from-scratch-per-point behaviour:
    the [Sparse.factor] oracle the tests and benchmarks compare against.
    Evaluation is thread-safe either way. *)

val dimension : t -> int
(** Order of the reduced nodal matrix. *)

val order_bound : t -> int
(** Upper estimate on the polynomial order: [min (capacitors, dimension)] —
    the [K >= n+1] estimate the interpolation needs (paper §2.1). *)

val den_gdeg : t -> int
(** Conductance-homogeneity degree of the denominator. *)

val num_gdeg : t -> int
(** Conductance-homogeneity degree of the numerator. *)

type value = {
  den : Symref_numeric.Extcomplex.t;
      (** [D(s)], extended range; exactly zero when the evaluation point is a
          pole of the scaled network *)
  num : Symref_numeric.Extcomplex.t;
      (** [N(s)]: [H(s) * D(s)] (eq. 10) at regular points, Cramer
          determinants at a pole — so numerator interpolation survives scale
          factors that park a pole on the unit circle *)
  h : Complex.t;  (** [H(s)]; meaningless when [singular] *)
  singular : bool;  (** the scaled matrix was singular at this point *)
}

val eval : ?f:float -> ?g:float -> t -> Complex.t -> value
(** [eval ~f ~g t s] evaluates at the point [s] with frequency scale [f] and
    conductance scale [g] (both default [1.]), replaying the learned
    pattern through the boxed {!Symref_linalg.Sparse.refactor}.  Callers
    that know a whole point set up front use {!eval_batch}. *)

val eval_batch : ?f:float -> ?g:float -> t -> Complex.t array -> value array
(** [eval_batch ~f ~g t points] evaluates a whole point set — one
    interpolation pass, one guard-retry level, one scale's verification
    probes — through the batched structure-of-arrays engine
    ({!Symref_linalg.Kernel.Batch}): the elimination program is decoded once
    and each instruction loops over the contiguous points, instead of
    replaying the whole program per point.  Result [i] is bit-for-bit the
    value [eval ~f ~g t points.(i)] would produce, including threshold-floor
    ejects, singular points and armed [sparse.singular] fault plans (hook
    fires are interleaved in point order, exactly as a sequential per-point
    sweep consumes them).  Falls back to a per-point sweep when [reuse] is
    off, the pattern is unavailable, or the per-domain batch pool refuses a
    checkout.  Batch-served points count [lu.refactor] +
    [kernel.batch_points]; ejected points count [kernel.fallback] +
    [kernel.batch_ejects] exactly once each. *)

val unit_system : t -> Complex.t -> Symref_linalg.Sparse.factor * Complex.t array
(** [unit_system t s] is the full-Markowitz factor of the reduced matrix
    [A(s) = G + s C] at unit scales ([f = g = 1]) and the right-hand side
    of the unit drive at [s], both read from the stamp {!make} recorded —
    the one assembly the noise, sensitivity and transient analyses solve
    (a real [s] gives the companion matrix of an implicit integrator).
    Rows and columns are the reduced indices of {!plan}.  The factor is a
    fresh {!Symref_linalg.Sparse.factor}, independent of the pattern
    chain; a singular [A(s)] factors with [Sparse.det] zero. *)

val elimination_program :
  ?f:float -> ?g:float -> t -> Symref_linalg.Kernel.program option
(** The elimination program the pattern chain uses at a scale pair —
    [None] when [reuse] is off or the canonical point is singular.  Moves
    the chain to the pair exactly as an evaluation there would.  Exposed
    for the benchmark's program-shape statistics (steps, slots, fill,
    update counts); learning or carrying the pattern counts under the
    pattern.* counters as usual. *)

val restart : t -> unit
(** Return the pattern chain to its root, the ordering learned at the
    anchor scale.  Between restarts the pattern used at a scale pair
    depends on the scale pairs evaluated before it, so the engines restart
    at the start of every run ({!Symref_core.Evaluator.t}[.restart]): a
    run's bits then never depend on what ran before on the same problem.
    Cheap: the root pattern is learned once and kept. *)

val release_pools : t -> unit
(** Drop the batched engine's workspace pool, whose planes grow with
    the largest pass.  The learned patterns stay; the next evaluation
    makes fresh pools.  {!Symref_core.Reference.generate} calls this when
    it returns, so a kept reference does not hold the planes. *)

val first_scales : t -> float * float
(** Heuristic first scales [(1 / mean C, 1 / mean G)] (paper §3.2), where
    the pattern chain learns its root; [(1, 1)] and no chain anchor when
    the circuit has no capacitor or no conductance. *)

type role = Ground | Driven of float | Free of int

type plan = {
  reduced_circuit : Symref_circuit.Netlist.t;
      (** circuit with the input voltage source removed *)
  roles : role array;  (** indexed by original node id *)
  plan_dim : int;
  plan_out_p : int option;  (** reduced index of the positive output *)
  plan_out_m : int option;
  plan_injections : (int * float) list;  (** reduced row -> injected current *)
}

val plan : t -> plan
(** The reduction the evaluator applies, exposed so other formulations
    (e.g. exact symbolic expansion) can build the {e same} matrix and get
    coefficients that line up with the numerical references. *)
