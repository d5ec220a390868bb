(** Network-function sensitivities — a primary application of symbolic
    analysis (and of the numerical references that drive its
    simplification): how much each circuit parameter moves the transfer
    function.

    Computes normalised sensitivities

    [S_x^H(s) = (x / H) * dH/dx]

    exactly, by the adjoint network method ({!adjoint_at}), at any point of
    the [j*omega] axis: one factor of the reduced nodal matrix
    ({!Nodal.unit_system}) and two solves cover every element.  {!at}
    keeps central-difference perturbation of each element value as the
    independent test oracle.  Magnitude sensitivity in dB-per-percent and
    phase sensitivity are derived views:
    [d|H|dB = 20 / ln 10 * Re S * dx/x * 100]. *)

type entry = {
  element : string;
  value : float;              (** design-point value *)
  s : Complex.t;              (** normalised sensitivity [S_x^H] *)
  mag_db_per_percent : float; (** magnitude shift for a +1% value change *)
  phase_deg_per_percent : float;
}

val at :
  ?rel_step:float ->
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freq_hz:float ->
  entry list
(** Sensitivities of every element with a perturbable value, sorted by
    descending [|s|], by central differences with two nodal solves per
    element — the oracle {!adjoint_at} is tested against.  [rel_step]
    (default [1e-4]) is the relative perturbation.  Elements whose
    perturbed network is singular are skipped.
    @raise Nodal.Unsupported on circuits outside the nodal class. *)

val worst_case :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freqs:float array ->
  (string * float) list
(** Per element, the maximum [|S|] over the frequency grid — the ranking a
    designer (or an SBG pruner) reads to find what matters.  Adjoint
    sensitivities, one factor per frequency; frequencies where the network
    is singular or [H] is zero are skipped.  Sorted descending.
    @raise Nodal.Unsupported on circuits outside the nodal class. *)

val adjoint_at :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freq_hz:float ->
  entry list
(** The adjoint (transpose) network method: {e exact} sensitivities of every
    element from two solves total — one forward, one through
    {!Symref_linalg.Sparse.solve_transpose} — instead of two solves per
    element.  For an admittance [y] between nodes [(a, b)] (or a VCCS with
    output [(p, m)] and control [(cp, cm)]),
    [dH/dy = -(w_a - w_b) (v_cp' - v_cm')] with [w] the adjoint solution.
    Results match {!at} to the perturbation's own accuracy; independent
    sources carry no sensitivity here.  Sorted by descending [|s|]. *)
