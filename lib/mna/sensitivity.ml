module Sparse = Symref_linalg.Sparse
module Netlist = Symref_circuit.Netlist
module Element = Symref_circuit.Element

type entry = {
  element : string;
  value : float;
  s : Complex.t;
  mag_db_per_percent : float;
  phase_deg_per_percent : float;
}

let perturbable (e : Element.t) =
  match e.Element.kind with
  | Element.Conductance _ | Element.Resistor _ | Element.Capacitor _
  | Element.Inductor _ | Element.Vccs _ | Element.Vcvs _ | Element.Cccs _
  | Element.Ccvs _ ->
      true
  | Element.Isrc _ | Element.Vsrc _ -> false

let h_of circuit ~input ~output s =
  let v = Nodal.eval (Nodal.make circuit ~input ~output) s in
  if v.Nodal.singular then None else Some v.Nodal.h

let at ?(rel_step = 1e-4) circuit ~input ~output ~freq_hz =
  let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
  let h0 =
    match h_of circuit ~input ~output s with
    | Some h when Complex.norm h > 0. -> h
    | Some _ | None -> invalid_arg "Sensitivity.at: H is zero or singular at this point"
  in
  let entries =
    List.filter_map
      (fun (e : Element.t) ->
        if not (perturbable e) then None
        else begin
          let name = e.Element.name in
          let up = Netlist.scale_element circuit name (1. +. rel_step) in
          let dn = Netlist.scale_element circuit name (1. -. rel_step) in
          match (h_of up ~input ~output s, h_of dn ~input ~output s) with
          | Some hp, Some hm ->
              (* S = (x/H) dH/dx with dx = x * rel_step, central difference. *)
              let dh = Complex.sub hp hm in
              let sens =
                Complex.div dh (Symref_numeric.Cx.scale (2. *. rel_step) h0)
              in
              (* A +1% value change moves |H| by ~20/ln10 * Re S * 0.01 dB and
                 the phase by ~Im S * 0.01 rad. *)
              let percent = 0.01 in
              Some
                {
                  element = name;
                  value = Element.principal_value e;
                  s = sens;
                  mag_db_per_percent =
                    20. /. Float.log 10. *. sens.Complex.re *. percent;
                  phase_deg_per_percent =
                    sens.Complex.im *. percent *. 180. /. Float.pi;
                }
          | _ -> None
        end)
      (Netlist.elements circuit)
  in
  List.sort
    (fun a b -> Float.compare (Complex.norm b.s) (Complex.norm a.s))
    entries

(* Adjoint method: one forward solve for v, one transpose solve for w with
   the output selector as RHS, both on the factor of Nodal's stamp; every
   element sensitivity is then a local product.  dv_out/dA_jk = -w_j v_k
   for free indices; driven and ground nodes carry v = drive value
   (resp. 0) and w = 0. *)
let adjoint_entries problem ~freq_hz =
  let plan = Nodal.plan problem in
  let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
  let factor, rhs = Nodal.unit_system problem s in
  if Symref_numeric.Extcomplex.is_zero (Sparse.det factor) then
    invalid_arg "Sensitivity.adjoint_at: singular network";
  let v = Sparse.solve factor rhs in
  let selector = Array.make plan.Nodal.plan_dim Complex.zero in
  Option.iter (fun r -> selector.(r) <- Complex.one) plan.Nodal.plan_out_p;
  Option.iter
    (fun r -> selector.(r) <- Complex.sub selector.(r) Complex.one)
    plan.Nodal.plan_out_m;
  let w = Sparse.solve_transpose factor selector in
  let h =
    let pick = function Some r -> v.(r) | None -> Complex.zero in
    Complex.sub (pick plan.Nodal.plan_out_p) (pick plan.Nodal.plan_out_m)
  in
  if Complex.norm h = 0. then invalid_arg "Sensitivity.adjoint_at: H is zero";
  (* Node potentials in the forward (including drives, unit input) and
     adjoint (zero at driven nodes) solutions. *)
  let v_at n =
    match plan.Nodal.roles.(n) with
    | Nodal.Ground -> Complex.zero
    | Nodal.Driven d -> { Complex.re = d; im = 0. }
    | Nodal.Free r -> v.(r)
  in
  let w_at n =
    match plan.Nodal.roles.(n) with
    | Nodal.Ground | Nodal.Driven _ -> Complex.zero
    | Nodal.Free r -> w.(r)
  in
  let dh_dy (op, om) (cp, cm) =
    Complex.neg
      (Complex.mul (Complex.sub (w_at op) (w_at om)) (Complex.sub (v_at cp) (v_at cm)))
  in
  let normalised y out ctrl = Complex.div (Complex.mul y (dh_dy out ctrl)) h in
  let entries =
    List.filter_map
      (fun (e : Element.t) ->
        let mk sens =
          let percent = 0.01 in
          Some
            {
              element = e.Element.name;
              value = Element.principal_value e;
              s = sens;
              mag_db_per_percent = 20. /. Float.log 10. *. sens.Complex.re *. percent;
              phase_deg_per_percent = sens.Complex.im *. percent *. 180. /. Float.pi;
            }
        in
        match e.Element.kind with
        | Element.Conductance { a; b = b'; siemens } ->
            mk (normalised { re = siemens; im = 0. } (a, b') (a, b'))
        | Element.Resistor { a; b = b'; ohms } ->
            (* S_R = -S_(1/R): the chain rule through y = 1/R. *)
            mk (Complex.neg (normalised { re = 1. /. ohms; im = 0. } (a, b') (a, b')))
        | Element.Capacitor { a; b = b'; farads } ->
            mk (normalised (Complex.mul s { re = farads; im = 0. }) (a, b') (a, b'))
        | Element.Vccs { p; m; cp; cm; gm } ->
            mk (normalised { re = gm; im = 0. } (p, m) (cp, cm))
        | Element.Isrc _ | Element.Inductor _ | Element.Vcvs _ | Element.Cccs _
        | Element.Ccvs _ | Element.Vsrc _ ->
            None)
      (Netlist.elements plan.Nodal.reduced_circuit)
  in
  List.sort (fun a b -> Float.compare (Complex.norm b.s) (Complex.norm a.s)) entries

let adjoint_at circuit ~input ~output ~freq_hz =
  adjoint_entries (Nodal.make circuit ~input ~output) ~freq_hz

let worst_case circuit ~input ~output ~freqs =
  let problem = Nodal.make circuit ~input ~output in
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun f ->
      match adjoint_entries problem ~freq_hz:f with
      | entries ->
          List.iter
            (fun e ->
              let m = Complex.norm e.s in
              match Hashtbl.find_opt tbl e.element with
              | Some old when old >= m -> ()
              | _ -> Hashtbl.replace tbl e.element m)
            entries
      | exception Invalid_argument _ -> ())
    freqs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
