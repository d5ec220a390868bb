(* Transport addressing: one NDJSON protocol over two socket families. *)

type address = Unix_sock of string | Tcp of { host : string; port : int }

let parse spec =
  (* [host:port] when the suffix after the last ':' is a valid port and the
     spec cannot be a filesystem path (no '/'); everything else is a Unix
     socket path.  This keeps every pre-existing socket-path spelling
     working while letting the same flag accept TCP endpoints. *)
  match String.rindex_opt spec ':' with
  | Some i when not (String.contains spec '/') -> (
      let host = String.sub spec 0 i in
      let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port_s with
      | Some port when port >= 0 && port < 65536 ->
          Tcp { host = (if host = "" then "127.0.0.1" else host); port }
      | _ -> Unix_sock spec)
  | _ -> Unix_sock spec

let to_string = function
  | Unix_sock path -> path
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp { host; port } ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match (Unix.gethostbyname host).Unix.h_addr_list with
          | [||] -> failwith (host ^ ": no address")
          | addrs -> addrs.(0))
      in
      Unix.ADDR_INET (inet, port)

let socket_domain = function Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

let connect addr =
  let fd = Unix.socket (socket_domain addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let connect_start addr =
  let fd = Unix.socket (socket_domain addr) Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    Unix.connect fd (sockaddr addr)
  with
  | () ->
      Unix.clear_nonblock fd;
      (fd, true)
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (fd, false)
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect_finish fd =
  match Unix.getsockopt_error fd with
  | Some e -> raise (Unix.Unix_error (e, "connect", ""))
  | None -> Unix.clear_nonblock fd

let listen ?(backlog = 16) ?socket_mode addr =
  match addr with
  | Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (* Starting a daemon on a live daemon's socket replaces it. *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         (match socket_mode with
         | Some mode -> Unix.chmod path mode
         | None -> ());
         Unix.listen fd backlog
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
  | Tcp _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         (* Restarted daemons must rebind without waiting out TIME_WAIT. *)
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (sockaddr addr);
         Unix.listen fd backlog
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd

let bound_address addr fd =
  match addr with
  | Unix_sock _ -> addr
  | Tcp { host; _ } -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp { host; port }
      | Unix.ADDR_UNIX path -> Unix_sock path)

let close_listener addr fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
