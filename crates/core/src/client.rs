//! The LabStor client library (paper §III-D "Application-Side").
//!
//! Applications link this to mount, modify, query and execute LabStacks.
//! For **async** stacks the client packages a request, places it in a
//! shared-memory queue pair and polls the completion queue (`Wait`),
//! detecting Runtime crashes and waiting for restart. For **sync** stacks
//! the DAG executes inline in the client thread — the paper's
//! decentralized mode with no IPC at all.

use std::sync::Arc;
use std::time::{Duration, Instant};

use labstor_ipc::{BufHandle, ClientConnection, Envelope};
use labstor_sim::Ctx;
use labstor_telemetry::{SpanEvent, Stage};

use crate::request::{FsOp, Message, Payload, Request, RespPayload, Response};
use crate::runtime::Runtime;
use crate::stack::{ExecMode, LabStack};
use crate::worker::process_request;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The Runtime went offline and did not return within the timeout.
    RuntimeDown,
    /// No stack governs the given mount path.
    NoStack(String),
    /// Submission queue stayed full past the timeout.
    Backpressure,
    /// The tenant's token-bucket admission rejected the request: typed
    /// backpressure, never a panic. `retry_after_ns` is the virtual delay
    /// after which the same request would be admitted.
    Throttled {
        /// Earliest virtual-time delay (ns) after which a retry can pass.
        retry_after_ns: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RuntimeDown => write!(f, "runtime offline"),
            ClientError::NoStack(p) => write!(f, "no LabStack governs {p}"),
            ClientError::Backpressure => write!(f, "submission queue full"),
            ClientError::Throttled { retry_after_ns } => {
                write!(
                    f,
                    "tenant rate limit: retry after {retry_after_ns} virtual ns"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client. One per application thread — it owns that thread's
/// virtual timeline.
pub struct Client {
    /// The IPC connection (domain + queue pairs).
    pub conn: ClientConnection<Message>,
    /// This client's virtual clock.
    pub ctx: Ctx,
    runtime: Arc<Runtime>,
    next_id: u64,
    rr: usize,
    /// CPU core this client thread is pinned to (stamped on requests).
    pub core: usize,
    /// In-flight async requests: id → (submit virtual time, queue index,
    /// stack id).
    pending: std::collections::HashMap<u64, (u64, usize, u64)>,
    /// Responses from inline (sync-stack) submissions awaiting reap.
    inline_done: Vec<(Response, u64)>,
    /// Completions drained from a CQ burst but not yet handed to the
    /// caller: `(response, latency_ns)` in reap order.
    reaped: std::collections::VecDeque<(Response, u64)>,
    /// How long `wait` tolerates an offline Runtime before giving up
    /// ("for a configurable period of time", §III-C3).
    pub offline_timeout: Duration,
    /// Live QoS accounting for this connection's tenant (`None` for the
    /// untenanted identity): token-bucket admission, counters, latency
    /// histogram.
    tenant: Option<Arc<labstor_qos::TenantState>>,
}

/// Modeled memcpy cost per KiB of the client edge's copy in (owned bytes
/// into a payload buffer) and copy out (a handle into owned bytes) — the
/// only payload copies of a page-aligned request.
pub const COPY_NS_PER_KB: u64 = 300;

/// Virtual cost of copying `bytes` payload bytes at the client edge.
pub fn copy_cost(bytes: usize) -> u64 {
    (bytes as u64 * COPY_NS_PER_KB) / 1024
}

/// Cap on each park of a client `wait` on its completion doorbell. Every
/// completion rings the bell, so the cap only bounds how long a crashed
/// Runtime (whose dead workers never ring) can go unnoticed — the wait
/// loops re-check liveness after each wakeup instead of spin-checking it.
const WAIT_PARK: Duration = Duration::from_millis(5);

impl Client {
    pub(crate) fn new(conn: ClientConnection<Message>, runtime: Arc<Runtime>) -> Client {
        let tenant = runtime.tenants.resolve(conn.creds.tenant);
        Client {
            conn,
            ctx: Ctx::new(),
            runtime,
            tenant,
            next_id: 0,
            rr: 0,
            core: 0,
            pending: std::collections::HashMap::new(),
            inline_done: Vec::new(),
            reaped: std::collections::VecDeque::new(),
            offline_timeout: Duration::from_secs(5),
        }
    }

    /// The runtime this client is connected to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// This connection's live tenant accounting, if it bills to one.
    pub fn tenant(&self) -> Option<&Arc<labstor_qos::TenantState>> {
        self.tenant.as_ref()
    }

    /// Token-bucket admission for one request: charge its payload bytes
    /// (min 1 token) against the tenant's bucket at the current virtual
    /// time. Untenanted clients always pass.
    fn admit(&self, cost_bytes: usize) -> Result<(), ClientError> {
        let Some(tenant) = &self.tenant else {
            return Ok(());
        };
        tenant
            .try_admit(self.ctx.now(), (cost_bytes as u64).max(1))
            .map_err(|retry_after_ns| ClientError::Throttled { retry_after_ns })
    }

    /// Record one completion latency into the tenant's histogram (the
    /// per-tenant p99 the isolation gate watches).
    fn observe_tenant_latency(&self, latency_ns: u64) {
        if let Some(tenant) = &self.tenant {
            tenant.observe_latency(latency_ns);
        }
    }

    /// Allocate a zeroed payload buffer for the application to fill in
    /// place — it writes its bytes straight into shared memory, then
    /// submits `FsOp::WriteBuf { buf, .. }` so no stage ever copies them.
    /// Never fails for lack of pool capacity (see
    /// [`labstor_ipc::BufferPool::alloc_payload`]).
    ///
    /// The buffer comes back zeroed: pool slots are recycled process-wide
    /// across clients and domains, so a partially filled buffer must not
    /// leak another domain's stale payload bytes into storage.
    pub fn alloc_buf(&self, len: usize) -> BufHandle {
        labstor_ipc::default_pool().alloc_payload(len)
    }

    /// Copy owned bytes into a payload buffer: the client edge's one
    /// counted copy in, charged to this client's clock.
    pub fn copy_in(&mut self, data: &[u8]) -> BufHandle {
        self.ctx.advance(copy_cost(data.len()));
        labstor_ipc::default_pool().payload_from(data)
    }

    /// Copy a payload buffer out into owned bytes: the client edge's one
    /// counted copy out, charged to this client's clock.
    pub fn copy_out(&mut self, buf: &BufHandle) -> Vec<u8> {
        self.ctx.advance(copy_cost(buf.len()));
        buf.to_vec()
    }

    /// The one place a request's owned bytes become the stack's payload
    /// carrier: `FsOp::Write { data }` turns into `FsOp::WriteBuf` through
    /// [`Client::copy_in`]. Called after admission, so a throttled request
    /// pays no copy.
    fn carry_payload(&mut self, payload: &mut Payload) {
        if let Payload::Fs(FsOp::Write { ino, offset, data }) = payload {
            let (ino, offset) = (*ino, *offset);
            let buf = self.copy_in(data);
            *payload = Payload::Fs(FsOp::WriteBuf { ino, offset, buf });
        }
    }

    /// Resolve the stack governing `path` (GenericFS-style ancestor walk).
    pub fn resolve(&self, path: &str) -> Result<(Arc<LabStack>, String), ClientError> {
        self.runtime
            .ns
            .resolve(path)
            .ok_or_else(|| ClientError::NoStack(path.to_string()))
    }

    /// Execute `payload` against a stack. Returns the response payload and
    /// the request's virtual latency in ns.
    pub fn execute(
        &mut self,
        stack: &Arc<LabStack>,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        let start = self.ctx.now();
        let req = self.admitted(stack, payload)?;
        let resp = match stack.exec {
            ExecMode::Sync => self.run_inline(req).payload,
            ExecMode::Async => self.roundtrip(req)?,
        };
        let latency = self.ctx.now() - start;
        self.observe_tenant_latency(latency);
        Ok((resp, latency))
    }

    /// Build a request, admit it and put its payload on the carrier: the
    /// front half every submission path shares.
    fn admitted(&mut self, stack: &LabStack, payload: Payload) -> Result<Request, ClientError> {
        self.next_id += 1;
        let mut req = Request::on_core(self.next_id, stack.id, payload, self.conn.creds, self.core);
        self.admit(req.payload_bytes())?;
        self.carry_payload(&mut req.payload);
        Ok(req)
    }

    /// Decentralized execution for sync stacks: run the DAG inline in this
    /// thread, no IPC.
    fn run_inline(&mut self, req: Request) -> Response {
        process_request(
            &mut self.ctx,
            req,
            &self.runtime.ns,
            &self.runtime.mm,
            self.conn.domain,
        )
    }

    /// Estimate a request's processing cost for the orchestrator (the
    /// connector queries the shared registry, like GenericFS).
    fn estimate(&self, req: &Request) -> u64 {
        self.runtime
            .ns
            .get_id(req.stack)
            .and_then(|s| s.vertices.first().cloned())
            .and_then(|v| self.runtime.mm.get(&v.uuid))
            .map(|m| m.est_processing_time(req))
            .unwrap_or(1_000)
    }

    /// Submit through a queue pair and wait for the matching completion.
    fn roundtrip(&mut self, req: Request) -> Result<RespPayload, ClientError> {
        let id = req.id;
        let stack_id = req.stack;
        let rec = self.runtime.mm.telemetry().clone();
        let est = self.estimate(&req);
        self.rr = (self.rr + 1) % self.conn.queues.len();
        let qp = self.conn.queues[self.rr].clone();
        qp.note_item_est(est);
        qp.add_load(est as i64);
        // Submit with backpressure retry.
        let mut msg = Message::Req(req);
        let deadline = Instant::now() + self.offline_timeout;
        loop {
            match qp.submit(msg, self.ctx.now(), self.conn.domain) {
                Ok(()) => break,
                Err(back) => {
                    msg = back;
                    if Instant::now() > deadline {
                        return Err(ClientError::Backpressure);
                    }
                    std::thread::yield_now();
                }
            }
        }
        if rec.enabled() {
            let now = self.ctx.now();
            rec.record(Stage::Submit, id, stack_id, 0, now, now);
        }
        // Wait: park on the CQ doorbell between reaps; detect a crashed
        // Runtime and wait for its restart, then repair state and
        // resubmit the request (§III-C3).
        loop {
            // Capture before the reap: a completion posted after the scan
            // rings the bell and aborts the park (doorbell protocol).
            let epoch = self.conn.bell.epoch();
            if let Some(env) = qp.reap(&mut self.ctx, self.conn.domain) {
                if let Message::Resp(resp) = env.payload {
                    if resp.id == id {
                        if rec.enabled() {
                            // Completion-queue crossing: from the
                            // worker's completion post to this reap.
                            rec.record(
                                Stage::HopResp,
                                id,
                                stack_id,
                                0,
                                env.submit_vt,
                                self.ctx.now(),
                            );
                        }
                        return Ok(resp.payload);
                    }
                    // A stale response from before a crash: drop it.
                }
                continue;
            }
            if !self.runtime.ipc.is_online() {
                // The in-flight request may be lost with the crashed
                // Runtime. Per §III-C3 the client library invokes
                // StateRepair in each LabMod once the Runtime returns;
                // resubmission happens in `execute_with_retry`.
                if self.runtime.ipc.wait_online(self.offline_timeout) {
                    self.runtime.mm.repair_all();
                }
                return Err(ClientError::RuntimeDown);
            }
            // Nothing reapable: park until a worker rings. The cap keeps
            // the liveness check above live when the Runtime dies parked.
            self.conn.bell.wait_past(epoch, WAIT_PARK);
        }
    }

    /// Execute with automatic resubmission across a Runtime crash: the
    /// request is retried until the Runtime answers or the offline
    /// timeout expires.
    pub fn execute_with_retry(
        &mut self,
        stack: &Arc<LabStack>,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        let deadline = Instant::now() + self.offline_timeout;
        loop {
            match self.execute(stack, payload.clone()) {
                Ok(r) => return Ok(r),
                Err(ClientError::RuntimeDown) if Instant::now() < deadline => {
                    if !self.runtime.ipc.wait_online(self.offline_timeout) {
                        return Err(ClientError::RuntimeDown);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submit a request without waiting (queue-depth > 1 clients).
    /// Returns the request id to pass to [`Client::reap_one`]. For
    /// sync-mode stacks the request executes inline and its response is
    /// buffered locally.
    pub fn submit(&mut self, stack: &Arc<LabStack>, payload: Payload) -> Result<u64, ClientError> {
        let req = self.admitted(stack, payload)?;
        let id = req.id;
        match stack.exec {
            ExecMode::Sync => {
                let resp = self.run_inline(req);
                self.inline_done.push((resp, self.ctx.now()));
                Ok(id)
            }
            ExecMode::Async => {
                let est = self.estimate(&req);
                self.rr = (self.rr + 1) % self.conn.queues.len();
                let qp = self.conn.queues[self.rr].clone();
                qp.note_item_est(est);
                qp.add_load(est as i64);
                self.pending.insert(id, (self.ctx.now(), self.rr, stack.id));
                let mut msg = Message::Req(req);
                let deadline = Instant::now() + self.offline_timeout;
                loop {
                    match qp.submit(msg, self.ctx.now(), self.conn.domain) {
                        Ok(()) => {
                            let rec = self.runtime.mm.telemetry();
                            if rec.enabled() {
                                let now = self.ctx.now();
                                rec.record(Stage::Submit, id, stack.id, 0, now, now);
                            }
                            return Ok(id);
                        }
                        Err(back) => {
                            msg = back;
                            if Instant::now() > deadline {
                                self.pending.remove(&id);
                                return Err(ClientError::Backpressure);
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
    }

    /// Submit a burst of requests without waiting, returning their ids in
    /// submission order. For an async stack the whole burst targets one
    /// queue (round-robin advances per burst, not per request) and goes
    /// through [`QueuePair::submit_batch`]: one SQ-counter publication and
    /// one batched `Submit`-span flush for the burst, instead of one per
    /// request — the client half of the batched IPC hot path.
    ///
    /// On backpressure timeout the not-yet-submitted tail is unregistered
    /// and `Err(Backpressure)` is returned; requests of the burst that did
    /// make it in stay in flight and remain reapable via
    /// [`Client::reap_one`].
    ///
    /// [`QueuePair::submit_batch`]: labstor_ipc::QueuePair::submit_batch
    pub fn submit_all(
        &mut self,
        stack: &Arc<LabStack>,
        payloads: Vec<Payload>,
    ) -> Result<Vec<u64>, ClientError> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        if stack.exec == ExecMode::Sync {
            let mut ids = Vec::with_capacity(payloads.len());
            for p in payloads {
                ids.push(self.submit(stack, p)?);
            }
            return Ok(ids);
        }
        self.rr = (self.rr + 1) % self.conn.queues.len();
        let qi = self.rr;
        let qp = self.conn.queues[qi].clone();
        // Admission charges the whole burst atomically (one bucket
        // operation per batch, matching the batched submit): either every
        // request is admitted or none is queued.
        let mut reqs: Vec<Request> = Vec::with_capacity(payloads.len());
        let mut burst_bytes: usize = 0;
        for p in payloads {
            self.next_id += 1;
            let req = Request::on_core(self.next_id, stack.id, p, self.conn.creds, self.core);
            burst_bytes = burst_bytes.saturating_add(req.payload_bytes().max(1));
            reqs.push(req);
        }
        self.admit(burst_bytes)?;
        let mut ids = Vec::with_capacity(reqs.len());
        let mut msgs: Vec<Message> = Vec::with_capacity(reqs.len());
        for mut req in reqs {
            self.carry_payload(&mut req.payload);
            let est = self.estimate(&req);
            qp.note_item_est(est);
            qp.add_load(est as i64);
            self.pending.insert(req.id, (self.ctx.now(), qi, stack.id));
            ids.push(req.id);
            msgs.push(Message::Req(req));
        }
        let deadline = Instant::now() + self.offline_timeout;
        while !msgs.is_empty() {
            if qp.submit_batch(&mut msgs, self.ctx.now(), self.conn.domain) == 0
                && Instant::now() > deadline
            {
                // Unregister the unsubmitted tail; keep ids that made it.
                for m in &msgs {
                    if let Message::Req(r) = m {
                        self.pending.remove(&r.id);
                    }
                }
                return Err(ClientError::Backpressure);
            }
            if !msgs.is_empty() {
                std::thread::yield_now();
            }
        }
        let rec = self.runtime.mm.telemetry();
        if rec.enabled() {
            let now = self.ctx.now();
            let stack_bits = (stack.id & 0x00FF_FFFF) as u32;
            rec.record_batch(ids.iter().map(|&id| SpanEvent {
                req_id: id,
                stage: Stage::Submit,
                stack: stack_bits,
                vertex: 0,
                ring: 0, // stamped by the recorder
                t_start_vns: now,
                t_end_vns: now,
            }));
        }
        Ok(ids)
    }

    /// Completions drained per CQ crossing in [`Client::reap_one`].
    const REAP_BATCH: usize = 8;

    /// Drain one burst of completions from each queue into the local
    /// `reaped` buffer: one CQ crossing (and one batched telemetry flush)
    /// per queue instead of one per completion. Per-envelope `dequeue_vt`
    /// keeps each completion's reap time exact inside the burst.
    fn drain_completions(&mut self) {
        let rec = self.runtime.mm.telemetry().clone();
        let recording = rec.enabled();
        let mut burst: Vec<Envelope<Message>> = Vec::with_capacity(Self::REAP_BATCH);
        let mut spans: Vec<SpanEvent> = Vec::new();
        for qi in 0..self.conn.queues.len() {
            let qp = self.conn.queues[qi].clone();
            if qp.reap_batch(
                &mut self.ctx,
                self.conn.domain,
                &mut burst,
                Self::REAP_BATCH,
            ) == 0
            {
                continue;
            }
            for env in burst.drain(..) {
                let (complete_vt, reap_vt) = (env.submit_vt, env.dequeue_vt);
                if let Message::Resp(resp) = env.payload {
                    let (submit_vt, _, stack_id) =
                        self.pending.remove(&resp.id).unwrap_or((0, 0, 0));
                    let latency = reap_vt.saturating_sub(submit_vt);
                    self.observe_tenant_latency(latency);
                    if recording {
                        // Completion-queue crossing: from the worker's
                        // completion post to this envelope's reap.
                        spans.push(SpanEvent {
                            req_id: resp.id,
                            stage: Stage::HopResp,
                            stack: (stack_id & 0x00FF_FFFF) as u32,
                            vertex: 0,
                            ring: 0, // stamped by the recorder
                            t_start_vns: complete_vt,
                            t_end_vns: reap_vt,
                        });
                    }
                    self.reaped.push_back((resp, latency));
                }
                // Stale requests bounced back after a crash: drop them.
            }
        }
        if recording && !spans.is_empty() {
            rec.record_batch(spans);
        }
    }

    /// Reap one completion from any of this client's queues (or the
    /// inline buffer for sync stacks). Returns `(response, latency_ns)`.
    /// Blocks (in real time) until something completes.
    pub fn reap_one(&mut self) -> Result<(Response, u64), ClientError> {
        if let Some((resp, done_vt)) = self.inline_done.pop() {
            // Inline execution already advanced the clock.
            let _ = done_vt;
            return Ok((resp, 0));
        }
        if let Some(r) = self.reaped.pop_front() {
            return Ok(r);
        }
        let deadline = Instant::now() + self.offline_timeout;
        loop {
            // Capture before the drain (doorbell protocol; see roundtrip).
            let epoch = self.conn.bell.epoch();
            self.drain_completions();
            if let Some(r) = self.reaped.pop_front() {
                return Ok(r);
            }
            if self.pending.is_empty() {
                return Err(ClientError::Backpressure);
            }
            if !self.runtime.ipc.is_online() {
                if self.runtime.ipc.wait_online(self.offline_timeout) {
                    self.runtime.mm.repair_all();
                }
                return Err(ClientError::RuntimeDown);
            }
            if Instant::now() > deadline {
                return Err(ClientError::RuntimeDown);
            }
            // Park until a completion burst rings this connection's bell;
            // the cap keeps the liveness and deadline checks live.
            self.conn.bell.wait_past(epoch, WAIT_PARK);
        }
    }

    /// Requests submitted via [`Client::submit`] not yet reaped
    /// (including inline sync-stack completions and buffered CQ-burst
    /// completions awaiting reap).
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.inline_done.len() + self.reaped.len()
    }

    /// Convenience: execute against whatever stack governs `path`.
    pub fn execute_path(
        &mut self,
        path: &str,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        let (stack, _) = self.resolve(path)?;
        self.execute(&stack, payload)
    }
}
