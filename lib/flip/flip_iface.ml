type config = {
  header_bytes : int;
  mtu : int;
  out_packet_cost : Sim.Time.span;
  loopback_cost : Sim.Time.span;
  locate_timeout : Sim.Time.span;
  locate_retries : int;
}

let default_config =
  {
    header_bytes = 40;
    mtu = 1460;
    out_packet_cost = Sim.Time.us 30;
    loopback_cost = Sim.Time.us 40;
    locate_timeout = Sim.Time.ms 100;
    locate_retries = 5;
  }

type pending = {
  (* reverse order; each fragment keeps its upper-layer header attribution *)
  mutable queued : (Fragment.t * (Obs.Layer.t * int) option) list;
  mutable attempts : int;
  mutable timer : Sim.Engine.handle option;
}

type t = {
  mach : Machine.Mach.t;
  cfg : config;
  nic : Net.Nic.t;
  registry : (Fragment.t -> unit) Address.Tbl.t;
  routes : int Address.Tbl.t;
  pendings : pending Address.Tbl.t;
  mutable next_msg_id : int;
  mutable locates : int;
  mutable n_in : int;
  mutable n_out : int;
}

type Sim.Payload.t +=
  | Data of Fragment.t
  | Locate_req of Address.t
  | Locate_rsp of Address.t * int

let machine t = t.mach
let config t = t.cfg
let registered t addr = Address.Tbl.mem t.registry addr

let eng t = Machine.Mach.engine t.mach
let mac t = Net.Nic.mac t.nic

let fragments_of t ~size = max 1 ((size + t.cfg.mtu - 1) / t.cfg.mtu)
let send_cost t ~size = fragments_of t ~size * t.cfg.out_packet_cost

(* Local delivery models the kernel looping a packet back to an endpoint on
   the same machine: a software interrupt per fragment. *)
let loopback t frag =
  Machine.Mach.interrupt t.mach ~layer:Obs.Layer.Flip ~name:"flip.loopback"
    ~cost:t.cfg.loopback_cost
    (fun () ->
      match Address.Tbl.find_opt t.registry frag.Fragment.dst with
      | Some handler -> handler frag
      | None -> ())

let transmit_fragment t ~dest ?upper frag =
  t.n_out <- t.n_out + 1;
  let bytes = t.cfg.header_bytes + frag.Fragment.bytes in
  let hdr =
    (Obs.Layer.Flip, t.cfg.header_bytes)
    :: (match upper with Some h -> [ h ] | None -> [])
  in
  Net.Nic.send t.nic (Net.Frame.make ~hdr ~src:(mac t) ~dest ~bytes (Data frag))

let send_control t ~dest payload =
  Net.Nic.send t.nic
    (Net.Frame.make
       ~hdr:[ (Obs.Layer.Flip, t.cfg.header_bytes) ]
       ~src:(mac t) ~dest ~bytes:t.cfg.header_bytes payload)

let rec locate t dst =
  match Address.Tbl.find_opt t.pendings dst with
  | None -> ()
  | Some p ->
    if p.attempts >= t.cfg.locate_retries then begin
      (* Undeliverable: FLIP is unreliable, so drop silently (upper layers
         retransmit and re-locate). *)
      Address.Tbl.remove t.pendings dst
    end
    else begin
      p.attempts <- p.attempts + 1;
      t.locates <- t.locates + 1;
      Obs.Log.log (eng t) "flip" "locate %a (attempt %d)" Address.pp dst
        p.attempts;
      send_control t ~dest:Net.Frame.Broadcast (Locate_req dst);
      p.timer <- Some (Sim.Engine.after (eng t) t.cfg.locate_timeout (fun () -> locate t dst))
    end

let route_fragment t ?upper frag =
  let dst = frag.Fragment.dst in
  if Address.Tbl.mem t.registry dst then loopback t frag
  else
    match Address.Tbl.find_opt t.routes dst with
    | Some station ->
      transmit_fragment t ~dest:(Net.Frame.Unicast station) ?upper frag
    | None -> (
        match Address.Tbl.find_opt t.pendings dst with
        | Some p -> p.queued <- (frag, upper) :: p.queued
        | None ->
          let p = { queued = [ (frag, upper) ]; attempts = 0; timer = None } in
          Address.Tbl.add t.pendings dst p;
          locate t dst)

let alloc_msg_id t =
  t.next_msg_id <- t.next_msg_id + 1;
  t.next_msg_id

(* The upper-layer header travels in the message's first fragment only. *)
let upper_for hdr frag =
  match hdr with
  | Some _ when frag.Fragment.index = 0 -> hdr
  | _ -> None

let unicast ?msg_id ?hdr t ~src ~dst ~size payload =
  (match dst with
   | Address.Group _ -> invalid_arg "Flip_iface.unicast: group address"
   | Address.Point _ -> ());
  let msg_id = match msg_id with Some id -> id | None -> alloc_msg_id t in
  let frags = Fragment.split ~src ~dst ~msg_id ~mtu:t.cfg.mtu ~size payload in
  List.iter (fun frag -> route_fragment t ?upper:(upper_for hdr frag) frag) frags

let multicast ?msg_id ?hdr t ~src ~group ~size payload =
  (match group with
   | Address.Point _ -> invalid_arg "Flip_iface.multicast: point address"
   | Address.Group _ -> ());
  let msg_id = match msg_id with Some id -> id | None -> alloc_msg_id t in
  let frags =
    Fragment.split ~src ~dst:group ~msg_id ~mtu:t.cfg.mtu ~size payload
  in
  List.iter
    (fun frag ->
      transmit_fragment t ~dest:Net.Frame.Multicast
        ?upper:(upper_for hdr frag) frag;
      if Address.Tbl.mem t.registry group then loopback t frag)
    frags

let flush_pending t dst station =
  match Address.Tbl.find_opt t.pendings dst with
  | None -> ()
  | Some p ->
    (match p.timer with Some h -> Sim.Engine.cancel (eng t) h | None -> ());
    Address.Tbl.remove t.pendings dst;
    List.iter
      (fun (frag, upper) ->
        transmit_fragment t ~dest:(Net.Frame.Unicast station) ?upper frag)
      (List.rev p.queued)

(* Runs in interrupt context, after the NIC's reception interrupt cost. *)
let input t (frame : Net.Frame.t) =
  match frame.Net.Frame.payload with
  | Data frag -> (
      t.n_in <- t.n_in + 1;
      match Address.Tbl.find_opt t.registry frag.Fragment.dst with
      | Some handler -> handler frag
      | None -> () (* not for us (unregistered group, stale route) *))
  | Locate_req addr ->
    if Address.Tbl.mem t.registry addr && not (Address.is_group addr) then
      send_control t ~dest:(Net.Frame.Unicast frame.Net.Frame.src) (Locate_rsp (addr, mac t))
  | Locate_rsp (addr, station) ->
    Address.Tbl.replace t.routes addr station;
    flush_pending t addr station
  | _ -> ()

let create mach ?(config = default_config) nic =
  let t =
    {
      mach;
      cfg = config;
      nic;
      registry = Address.Tbl.create 16;
      routes = Address.Tbl.create 16;
      pendings = Address.Tbl.create 8;
      next_msg_id = 0;
      locates = 0;
      n_in = 0;
      n_out = 0;
    }
  in
  Net.Nic.set_rx nic (fun frame -> input t frame);
  t

let register t addr handler =
  if Address.Tbl.mem t.registry addr then
    invalid_arg "Flip_iface.register: address already bound";
  Address.Tbl.replace t.registry addr handler

let unregister t addr = Address.Tbl.remove t.registry addr
let add_route t addr station = Address.Tbl.replace t.routes addr station
let locates_sent t = t.locates
let packets_in t = t.n_in
let packets_out t = t.n_out
