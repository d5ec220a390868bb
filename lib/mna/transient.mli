(** Linear transient simulation of nodal-class circuits by trapezoidal
    integration (capacitor companion models), with the input applied as a
    time-domain waveform on the driven nodes.

    With a fixed step [h] the companion system is the reduced nodal matrix
    [A(s)] at the real point [s = 2/h] (one backward-Euler start-up step
    uses [s = 1/h]), read from {!Nodal.unit_system}: it is factored once and
    every time step is a single sparse solve — the standard linear
    circuit-simulator fast path.  Results cross-validate against the modal
    (partial-fraction) responses computed from the reference coefficients,
    which is exactly the kind of independent agreement this repository is
    about. *)

type waveform = float -> float
(** Input value at time [t] (seconds). *)

val step : ?amplitude:float -> unit -> waveform
(** Unit (or scaled) step at [t = 0]. *)

val sine : ?amplitude:float -> freq_hz:float -> unit -> waveform

type result = {
  times : float array;
  output : float array;  (** observed output voltage *)
}

val simulate :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  waveform:waveform ->
  t_stop:float ->
  steps:int ->
  result
(** Trapezoidal integration from zero initial conditions over [steps]
    uniform steps.  The waveform scales the whole unit drive of [input],
    exactly as in [H]: the drive coefficients of a voltage input (e.g. the
    [+-1/2] of a differential pair), the unit current of [I_single], and
    the netlist's own [I] sources, which are part of that drive too.  A
    step therefore holds every source at its netlist value from [t = 0].
    @raise Nodal.Unsupported outside the nodal class;
    @raise Invalid_argument when [steps < 1] or [t_stop <= 0.]. *)
