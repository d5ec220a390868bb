module Sparse = Symref_linalg.Sparse
module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist

type waveform = float -> float

let step ?(amplitude = 1.) () = fun t -> if t >= 0. then amplitude else 0.

let sine ?(amplitude = 1.) ~freq_hz () =
 fun t -> amplitude *. Float.sin (2. *. Float.pi *. freq_hz *. t)

type result = { times : float array; output : float array }

type cap_state = {
  ca : int;          (* node ids, 0 = ground *)
  cb : int;
  g_eq : float;      (* 2C/h *)
  mutable v : float; (* capacitor voltage at the last accepted step *)
  mutable i : float; (* capacitor current at the last accepted step *)
}

let simulate circuit ~input ~output ~waveform ~t_stop ~steps =
  if steps < 1 then invalid_arg "Transient.simulate: steps must be >= 1";
  if not (t_stop > 0.) then invalid_arg "Transient.simulate: t_stop must be > 0";
  let problem = Nodal.make circuit ~input ~output in
  let plan = Nodal.plan problem in
  let dim = plan.Nodal.plan_dim in
  let h = t_stop /. float_of_int steps in
  (* A capacitor over one step is its companion conductance [coef * C / h]
     beside a history current, so the constant step matrix is A(s) at the
     real point s = coef / h: coef = 2 for trapezoidal, 1 for the
     backward-Euler start-up step that absorbs the inconsistent initial
     state.  The stamp's right-hand side there is the unit input's drive. *)
  let system coef =
    let factor, drive = Nodal.unit_system problem { Complex.re = coef /. h; im = 0. } in
    if Symref_numeric.Extcomplex.is_zero (Sparse.det factor) then
      invalid_arg "Transient.simulate: singular system";
    (factor, drive)
  in
  let trap = system 2. and be = system 1. in
  let caps =
    List.filter_map
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Capacitor { a; b; farads } ->
            Some { ca = a; cb = b; g_eq = 2. *. farads /. h; v = 0.; i = 0. }
        | _ -> None)
      (Netlist.elements plan.Nodal.reduced_circuit)
  in
  let x = Array.make dim 0. in
  (* Voltage of a node given the current free solution and drive value. *)
  let node_v u n =
    match plan.Nodal.roles.(n) with
    | Nodal.Ground -> 0.
    | Nodal.Driven d -> d *. u
    | Nodal.Free r -> x.(r)
  in
  let out () =
    let pick = function None -> 0. | Some r -> x.(r) in
    pick plan.Nodal.plan_out_p -. pick plan.Nodal.plan_out_m
  in
  let times = Array.init (steps + 1) (fun i -> float_of_int i *. h) in
  let output = Array.make (steps + 1) 0. in
  output.(0) <- 0.;
  let rhs = Array.make dim Complex.zero in
  for n = 1 to steps do
    let t = times.(n) in
    let u = waveform t in
    (* Backward Euler on the first step (hist = g_be v_n, i unused), then
       trapezoidal (hist = g_eq v_n + i_n). *)
    let first = n = 1 in
    let fct, drive = if first then be else trap in
    Array.iteri
      (fun r (d : Complex.t) -> rhs.(r) <- { Complex.re = d.re *. u; im = 0. })
      drive;
    List.iter
      (fun c ->
        let g = if first then c.g_eq /. 2. else c.g_eq in
        let hist = (g *. c.v) +. (if first then 0. else c.i) in
        (match plan.Nodal.roles.(c.ca) with
        | Nodal.Free r -> rhs.(r) <- Complex.add rhs.(r) { re = hist; im = 0. }
        | Nodal.Ground | Nodal.Driven _ -> ());
        (match plan.Nodal.roles.(c.cb) with
        | Nodal.Free r -> rhs.(r) <- Complex.add rhs.(r) { re = -.hist; im = 0. }
        | Nodal.Ground | Nodal.Driven _ -> ()))
      caps;
    let sol = Sparse.solve fct rhs in
    Array.iteri (fun r (z : Complex.t) -> x.(r) <- z.re) sol;
    (* Update capacitor states. *)
    List.iter
      (fun c ->
        let v_new = node_v u c.ca -. node_v u c.cb in
        let i_new =
          if first then c.g_eq /. 2. *. (v_new -. c.v)
          else (c.g_eq *. (v_new -. c.v)) -. c.i
        in
        c.v <- v_new;
        c.i <- i_new)
      caps;
    output.(n) <- out ()
  done;
  { times; output }
