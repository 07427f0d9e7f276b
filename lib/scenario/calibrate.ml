type measurement = {
  m_era : string;
  m_intr_entry : int;
  m_wire_busy : (int * int) list;
  m_rx_intr : (int * int) list;
  m_rx_intr_mcast : int * int;
  m_probe_payload : int;
  m_local_ns : int;
  m_cross_ns : int;
}

type Sim.Payload.t += Probe

(* Payloads for the affine fits: a null frame exposes the padding floor;
   the two larger sizes sit above any plausible [min_payload], so their
   busy-time delta isolates the per-byte slope. *)
let probe_payloads = [ 0; 200; 1000 ]
let switch_payload = 200

(* One frame on an otherwise idle two-machine segment; returns the
   segment's wire-busy time and the receiver's interrupt-context busy
   time once the run drains. *)
let frame_probe ~machine ~(net : Core.Params.net_profile) ~dest ~payload () =
  let eng = Sim.Engine.create () in
  let machines =
    Array.init 2 (fun i ->
        Machine.Mach.create eng ~id:i ~name:(Printf.sprintf "cal%d" i) machine)
  in
  let seg = Net.Segment.create eng ~config:net.Core.Params.np_segment "cal.seg" in
  let nics =
    Array.map (fun m -> Net.Nic.create m ~config:net.Core.Params.np_nic seg) machines
  in
  Net.Nic.send nics.(0) (Net.Frame.make ~src:0 ~dest ~bytes:payload Probe);
  Sim.Engine.run eng;
  ( Net.Segment.busy_time seg,
    Machine.Cpu.busy_interrupt_time (Machine.Mach.cpu machines.(1)) )

(* Send-to-delivery time for one unicast frame, on a shared segment
   ([cross = false]) or across the store-and-forward switch (two
   single-machine segments).  The receive handler timestamps delivery;
   the interrupt cost it runs under is identical in both topologies, so
   the cross-minus-local delta cancels it. *)
let delivery_probe ~machine ~(net : Core.Params.net_profile) ~cross ~payload () =
  let eng = Sim.Engine.create () in
  let machines =
    Array.init 2 (fun i ->
        Machine.Mach.create eng ~id:i ~name:(Printf.sprintf "cal%d" i) machine)
  in
  let topo =
    Net.Topology.build eng ~machines
      ~per_segment:(if cross then 1 else 2)
      ~segment_config:net.Core.Params.np_segment ~nic_config:net.Core.Params.np_nic
      ~switch_latency:net.Core.Params.np_switch ()
  in
  let delivered = ref (-1) in
  Net.Nic.set_rx (Net.Topology.nic topo 1) (fun _ ->
      delivered := Sim.Engine.now eng);
  Net.Nic.send (Net.Topology.nic topo 0)
    (Net.Frame.make ~src:0 ~dest:(Net.Frame.Unicast 1) ~bytes:payload Probe);
  Sim.Engine.run eng;
  if !delivered < 0 then failwith "Calibrate: probe frame was not delivered";
  !delivered

let measure ?(machine = Core.Params.(calibrated.machine)) ~net () =
  let uni p =
    frame_probe ~machine ~net ~dest:(Net.Frame.Unicast 1) ~payload:p ()
  in
  let probes = List.map (fun p -> (p, uni p)) probe_payloads in
  let _, (_, intr_m) =
    ( switch_payload,
      frame_probe ~machine ~net ~dest:Net.Frame.Multicast ~payload:switch_payload () )
  in
  {
    m_era = net.Core.Params.np_name;
    m_intr_entry = machine.Machine.Mach.interrupt_entry;
    m_wire_busy = List.map (fun (p, (busy, _)) -> (p, busy)) probes;
    m_rx_intr = List.map (fun (p, (_, intr)) -> (p, intr)) probes;
    m_rx_intr_mcast = (switch_payload, intr_m);
    m_probe_payload = switch_payload;
    m_local_ns = delivery_probe ~machine ~net ~cross:false ~payload:switch_payload ();
    m_cross_ns = delivery_probe ~machine ~net ~cross:true ~payload:switch_payload ();
  }

(* Exact division or a named error: the fit refuses to round. *)
let exact_div ~what a b =
  if b <= 0 then Error (Printf.sprintf "%s: division by %d" what b)
  else if a mod b <> 0 then
    Error (Printf.sprintf "%s: %d not divisible by %d (not affine)" what a b)
  else Ok (a / b)

let ( let* ) = Result.bind

let fit ?(name = "fitted") ?label m =
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "fitted from %s probes" m.m_era
  in
  let sorted = List.sort compare m.m_wire_busy in
  match (sorted, List.sort compare m.m_rx_intr) with
  | ( [ (0, busy0); (p1, busy1); (p2, busy2) ],
      [ (0, _); (q1, intr1); (q2, intr2) ] )
    when p1 = q1 && p2 = q2 && p1 < p2 ->
    (* Store probe: busy(p) = (p + framing) * byte_time above the floor. *)
    let* byte_time = exact_div ~what:"byte_time" (busy2 - busy1) (p2 - p1) in
    let* w1 = exact_div ~what:"wire busy" busy1 byte_time in
    let framing = w1 - p1 in
    let* w0 = exact_div ~what:"null-frame busy" busy0 byte_time in
    let min_payload = w0 - framing in
    if framing < 0 || min_payload < 0 then
      Error "fit: negative framing/min_payload"
    else if min_payload > p1 then
      Error "fit: probe payloads below the padding floor"
    else
      (* Load probe: intr(p) = interrupt_entry + rx_base + p * rx_byte. *)
      let* rx_byte = exact_div ~what:"rx_byte" (intr2 - intr1) (p2 - p1) in
      let rx_base = intr1 - (p1 * rx_byte) - m.m_intr_entry in
      let mp, intr_mcast = m.m_rx_intr_mcast in
      let rx_uni_at =
        match List.assoc_opt mp m.m_rx_intr with
        | Some v -> Ok v
        | None -> Error "fit: multicast probe payload has no unicast twin"
      in
      let* rx_uni = rx_uni_at in
      let rx_mcast_extra = intr_mcast - rx_uni in
      if rx_byte < 0 || rx_base < 0 || rx_mcast_extra < 0 then
        Error "fit: negative NIC constants"
      else
        (* Round-trip probe: cross - local = switch latency + one more
           wire time (store-and-forward retransmits the frame). *)
        let wire_time p = (max p min_payload + framing) * byte_time in
        let switch = m.m_cross_ns - m.m_local_ns - wire_time m.m_probe_payload in
        if switch < 0 then Error "fit: negative switch latency"
        else
          Ok
            {
              Core.Params.np_name = name;
              np_label = label;
              np_segment =
                { Net.Segment.byte_time; framing_bytes = framing; min_payload };
              np_nic = { Net.Nic.rx_base; rx_byte; rx_mcast_extra };
              np_switch = switch;
            }
  | _ -> Error "fit: expected probes at payloads 0 < p1 < p2 on both axes"

let verify ~reference fitted =
  let lat net =
    Core.Experiments.rpc_latency ~net ~impl:Core.Cluster.User ~size:0 ()
  in
  (lat reference, lat fitted)

let pp fmt m =
  Format.fprintf fmt "calibration probes (%s, interrupt_entry %d ns):@." m.m_era
    m.m_intr_entry;
  List.iter
    (fun (p, busy) -> Format.fprintf fmt "  store  %4d B  wire busy %8d ns@." p busy)
    m.m_wire_busy;
  List.iter
    (fun (p, intr) -> Format.fprintf fmt "  load   %4d B  rx intr   %8d ns@." p intr)
    m.m_rx_intr;
  let mp, mi = m.m_rx_intr_mcast in
  Format.fprintf fmt "  load   %4d B  rx intr   %8d ns (multicast)@." mp mi;
  Format.fprintf fmt "  rtt    %4d B  local %d ns  cross %d ns@." m.m_probe_payload
    m.m_local_ns m.m_cross_ns
