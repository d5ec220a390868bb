(* Seeded input generation.  Everything the program under test receives is
   built here from the workload seed: SPICE text for the in-process
   workload, NDJSON request lines for the fleet workloads.  Circuit sizes
   walk a fixed stratified sequence, and the seed only picks element values
   and topologies, so every seed sees the same size mix. *)

module Rn = Symref_circuit.Random_net
module Ladder = Symref_circuit.Rc_ladder
module Ua741 = Symref_circuit.Ua741
module Writer = Symref_spice.Writer
module Nodal = Symref_mna.Nodal
module Protocol = Symref_serve.Protocol
module Json = Symref_obs.Json

(* splitmix64 finaliser: a well-mixed 62-bit value for (seed, stream, i). *)
let mix seed stream i =
  let open Int64 in
  let z =
    add (mul (of_int seed) 0x9e3779b97f4a7c15L)
      (add (mul (of_int stream) 0xbf58476d1ce4e5b9L) (of_int i))
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 2)

let uniform seed stream i = float_of_int (mix seed stream i land 0xfffffff) /. 268435456.

type circuit = {
  name : string;  (** e.g. [random-net-37], [ua741], [ladder-64] *)
  text : string;  (** SPICE netlist *)
  input : Nodal.input;
  output : Nodal.output;
  input_spec : string;  (** the same drive in serve-job syntax *)
  output_spec : string;
  ladder : (float * float * int) option;
      (** [(r, c, sections)] of an RC ladder: its exact denominator is the
          oracle *)
}

(* The writer prefixes every card name with its type letter: the generators'
   source "vin" reads back as "v_vin". *)
let vin = "v_vin"

let random_net ~seed ~nodes =
  let c = Rn.circuit ~seed ~nodes () in
  let out = Rn.output_node ~seed ~nodes in
  {
    name = Printf.sprintf "random-net-%d" nodes;
    text = Writer.to_string c;
    input = Nodal.Vsrc_element vin;
    output = Nodal.Out_node out;
    input_spec = vin;
    output_spec = out;
    ladder = None;
  }

let ua741 =
  lazy
    {
      name = "ua741";
      text = Writer.to_string Ua741.circuit;
      input = Nodal.V_diff (Ua741.input_p, Ua741.input_n);
      output = Nodal.Out_node Ua741.output;
      input_spec = Printf.sprintf "diff:%s,%s" Ua741.input_p Ua741.input_n;
      output_spec = Ua741.output;
      ladder = None;
    }

let ladder ~r ~c sections =
  {
    name = Printf.sprintf "ladder-%d" sections;
    text = Writer.to_string (Ladder.circuit ~r ~c sections);
    input = Nodal.Vsrc_element vin;
    output = Nodal.Out_node Ladder.output_node;
    input_spec = vin;
    output_spec = Ladder.output_node;
    ladder = Some (r, c, sections);
  }

let net_seed seed stream i = mix seed stream i land 0x3fffffff

(* ref-mid: random nets of 24..64 nodes, every eighth circuit the µA741. *)
let mid_circuit ~seed i =
  if i mod 8 = 7 then Lazy.force ua741
  else random_net ~seed:(net_seed seed 1 i) ~nodes:(24 + (i * 17 mod 41))

(* fleet-hit key [k]: a random net of 24..64 nodes; key 3 is the µA741. *)
let hit_key ~seed k =
  if k = 3 then Lazy.force ua741
  else random_net ~seed:(net_seed seed 2 k) ~nodes:(24 + (k * 13 mod 41))

(* fleet-miss job [i]: alternately a random net of 64..128 nodes and an RC
   ladder of 48..128 sections with seeded element values. *)
let miss_circuit ~seed i =
  let j = i / 2 in
  if i mod 2 = 0 then random_net ~seed:(net_seed seed 3 i) ~nodes:(64 + (j * 37 mod 65))
  else
    (* Values with few digits survive the writer's 6-digit SI text exactly,
       so the exact recurrence sees the circuit the program parses. *)
    let r = float_of_int (500 + (mix seed 4 i mod 1000))
    and c = 1e-15 *. float_of_int (500 + (mix seed 5 i mod 1000)) in
    ladder ~r ~c (48 + (j * 29 mod 81))

let job ~id (c : circuit) =
  {
    Protocol.default_job with
    Protocol.id = Some id;
    netlist = `Text c.text;
    input = c.input_spec;
    output = Some c.output_spec;
  }

let request_line job = Json.to_string (Protocol.request_to_json (Protocol.Submit job)) ^ "\n"

(* Zipf over [k] ranks: rank r drawn with weight 1/(r+1). *)
let zipf_table k =
  let w = Array.init k (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw table u =
  let n = Array.length table in
  let rec go i = if i >= n - 1 || u < table.(i) then i else go (i + 1) in
  go 0
