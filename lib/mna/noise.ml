module Sparse = Symref_linalg.Sparse
module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist

type contribution = { element : string; output_density : float }

type point = {
  freq_hz : float;
  output_density : float;
  input_density : float;
  contributions : contribution list;
}

let temperature_kelvin = 300.
let boltzmann = 1.380649e-23

(* Noise current spectral density of an element, A^2/Hz, between its output
   terminals; None for noiseless elements. *)
let source_of (e : Element.t) =
  let kt = boltzmann *. temperature_kelvin in
  match e.Element.kind with
  | Element.Resistor { a; b; ohms } -> Some (a, b, 4. *. kt /. ohms)
  | Element.Conductance { a; b; siemens } ->
      if siemens > 0. then Some (a, b, 4. *. kt *. siemens) else None
  | Element.Vccs { p; m; gm; _ } ->
      (* Shot noise 2qI with I = gm * VT: 2 k T gm. *)
      Some (p, m, 2. *. kt *. Float.abs gm)
  | Element.Capacitor _ | Element.Inductor _ | Element.Vcvs _ | Element.Cccs _
  | Element.Ccvs _ | Element.Isrc _ | Element.Vsrc _ ->
      None

(* Adjoint method: w = A^-T e_out from one transpose solve, so a unit noise
   current from a to b reaches the output through the transimpedance
   w_b - w_a.  Driven and ground nodes carry w = 0. *)
let point_of problem ~freq_hz =
  let plan = Nodal.plan problem in
  let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
  let factor, rhs = Nodal.unit_system problem s in
  if Symref_numeric.Extcomplex.is_zero (Sparse.det factor) then
    invalid_arg "Noise.at: network singular at this frequency";
  let selector = Array.make plan.Nodal.plan_dim Complex.zero in
  Option.iter (fun r -> selector.(r) <- Complex.one) plan.Nodal.plan_out_p;
  Option.iter
    (fun r -> selector.(r) <- Complex.sub selector.(r) Complex.one)
    plan.Nodal.plan_out_m;
  let w = Sparse.solve_transpose factor selector in
  let w_at n =
    match plan.Nodal.roles.(n) with
    | Nodal.Free r -> w.(r)
    | Nodal.Ground | Nodal.Driven _ -> Complex.zero
  in
  let contributions =
    List.filter_map
      (fun (e : Element.t) ->
        match source_of e with
        | None -> None
        | Some (a, b, density) ->
            let z = Complex.sub (w_at b) (w_at a) in
            Some
              {
                element = e.Element.name;
                output_density = density *. Complex.norm z *. Complex.norm z;
              })
      (Netlist.elements plan.Nodal.reduced_circuit)
    |> List.sort (fun (x : contribution) (y : contribution) ->
           Float.compare y.output_density x.output_density)
  in
  let output_density =
    List.fold_left (fun acc (c : contribution) -> acc +. c.output_density) 0. contributions
  in
  let x = Sparse.solve factor rhs in
  let pick = function Some r -> x.(r) | None -> Complex.zero in
  let h = Complex.sub (pick plan.Nodal.plan_out_p) (pick plan.Nodal.plan_out_m) in
  let h2 = Complex.norm h *. Complex.norm h in
  {
    freq_hz;
    output_density;
    input_density = (if h2 = 0. then infinity else output_density /. h2);
    contributions;
  }

let at circuit ~input ~output ~freq_hz =
  point_of (Nodal.make circuit ~input ~output) ~freq_hz

let sweep circuit ~input ~output ~freqs =
  let problem = Nodal.make circuit ~input ~output in
  Array.map (fun f -> point_of problem ~freq_hz:f) freqs

let integrate_rms points =
  let acc = ref 0. in
  for i = 0 to Array.length points - 2 do
    let a = points.(i) and b = points.(i + 1) in
    acc :=
      !acc
      +. ((a.output_density +. b.output_density) /. 2. *. (b.freq_hz -. a.freq_hz))
  done;
  Float.sqrt !acc
