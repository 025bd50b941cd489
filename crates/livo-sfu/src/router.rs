//! The SFU router: one capture stream in, N adapted downlinks out.
//!
//! Per frame the router (1) predicts every subscriber's frustum, once,
//! (2) groups subscribers into clusters by mutual frustum
//! coverage, (3) runs **one union-cull + tile + encode pass per cluster**
//! in parallel on the worker pool, with the encode rate capped at the
//! fastest member's GCC estimate, and (4) fans the cluster bitstreams out
//! to every member's own [`RtcSession`], the fan-out itself sharded
//! across the pool. Cluster encodes have two temporal layers: every member
//! gets each T0 and a T1 only while its downlink carries it, so a member
//! far slower than the leader settles on the T0s, 15 fps that decode alone
//! (no re-encode, no second variant; see `Subscriber::takes_t1`).
//!
//! ## Sharded route
//!
//! `route_frame` has no global serial section around the heavy work:
//!
//! 1. **Plan** (serial, cheap): recluster if membership changed, derive
//!    per-cluster work orders from member estimates, and resolve intra
//!    requests against the cluster's cooldown.
//! 2. **Encode** (parallel): one task per cluster runs union-cull,
//!    tiling and both encoders, joined on the same pool. Clusters are
//!    independent, so this scales with the gaze-group count.
//! 3. **Fan-out** (parallel): subscribers are partitioned into
//!    contiguous shards ([`WorkerPool::for_each_chunk_mut`]); each shard
//!    packetises and sends on its members' own sessions. The cluster
//!    payloads are shared [`Bytes`], so a 500-way fan-out refcounts one
//!    buffer instead of copying it 500 times.
//!
//! With `LIVO_THREADS=1` all three phases run inline and the forwarded
//! streams are bit-exact with any other pool size: each member's state is
//! only ever touched by the one task that owns its shard.
//!
//! ## One drive loop
//!
//! Between routed frames the driver calls `run_until`, which ticks every
//! instant of the 1 ms grid. A tick is serial: it ticks only the sessions
//! with something due ([`RtcSession::next_event`]) and decides only the
//! display slots that are due; the rest cost one compare each, less than
//! a pool scope would.
//!
//! [`RtcSession::next_event`]: livo_transport::RtcSession::next_event
//!
//! ## Churn without intra storms
//!
//! Subscribers join, leave and regroup mid-call. Each cluster keeps one
//! P chain guarded by a [`ChainState`]: an intra *request* arms the chain,
//! and the chain fires at most one intra per cooldown window (the
//! cluster's max member RTT). A joiner arms only its target cluster's
//! chain; a leaver is patched out of its cluster in place — siblings keep
//! their P chain and never see an intra; a regroup migrates the subscriber
//! and arms only the *destination* chain.
//!
//! Keyframe control fans in: a PLI from *any* member — its receiver
//! stand-in's decode failure or P-chain break, asked for over the member's
//! own downlink like any PLI — arms that member's cluster chain, not one
//! encoder per subscriber. The downlink session answers a PLI about a
//! frame older than a keyframe it already sent with that keyframe, so
//! such a PLI arms nothing; every other PLI arms the chain, and the chain's
//! cooldown defers (never drops) the intra. NACK retransmissions never
//! reach the router at all — they are handled per-downlink inside each
//! member's session.

use crate::cluster::{cluster_views, ViewVolume};
use crate::subscriber::{Subscriber, SubscriberConfig};
use bytes::Bytes;
use livo_capture::{BandwidthTrace, RgbdFrame};
use livo_codec2d::{EncodedFrame, FrameType};
use livo_core::depth::DepthEncoding;
use livo_core::stage::{Rate, SenderStage, FPS, MEDIA_SHARE};
use livo_core::tile::TileLayout;
use livo_math::{Frustum, Pose, RgbdCamera};
use livo_runtime::WorkerPool;
use livo_telemetry::trace::{intern, kind, EventTrace, NO_FRAME};
use livo_telemetry::{metric_safe, Counter, Gauge, Histogram, MetricsRegistry};
use livo_transport::{Micros, StreamId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The drive loop's tick: every router instant is on a 1 ms grid.
const TICK_US: Micros = 1_000;

/// Re-run clustering every this many frames (membership changes and PLIs
/// take effect immediately regardless).
const RECLUSTER_EVERY: u64 = 15;

/// Hard cap on live subscribers; `add_subscriber` returns
/// [`RouterError::AtCapacity`] beyond it.
const MAX_SUBSCRIBERS: usize = 4096;

/// Opaque subscriber handle issued by [`Router::add_subscriber`].
///
/// Ids are monotonic and never reused, so a handle held across a
/// [`Router::remove_subscriber`] goes stale instead of silently aliasing
/// the next joiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(u64);

impl SubscriberId {
    /// The raw value, for trace args and serialised reports.
    pub(crate) const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Errors from the router's lifecycle API.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterError {
    /// A builder parameter failed validation.
    InvalidConfig {
        field: &'static str,
        message: String,
    },
    /// The id does not name a live subscriber (never issued, or removed).
    UnknownSubscriber(SubscriberId),
    /// A live subscriber's display name folds to the same metric segment
    /// as this one ([`metric_safe`]): names feed the `sfu.sub.<name>.*`
    /// namespace, which must stay unambiguous.
    DuplicateSubscriber(String),
    /// The router already serves its cap of 4096 live subscribers.
    AtCapacity { max: usize },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::InvalidConfig { field, message } => {
                write!(f, "invalid router config: {field}: {message}")
            }
            RouterError::UnknownSubscriber(id) => write!(f, "unknown subscriber {id}"),
            RouterError::DuplicateSubscriber(name) => {
                write!(f, "subscriber name {name:?} already in use")
            }
            RouterError::AtCapacity { max } => {
                write!(f, "router is at capacity ({max} subscribers)")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// Configuration of the SFU router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Encode sharing. `false` = naive fan-out: every subscriber is a
    /// singleton cluster with its own cull+encode pass (the baseline the
    /// scaling benchmark compares against).
    pub sharing: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { sharing: true }
    }
}

/// Validating constructor for [`Router`], mirroring
/// `ConferenceConfig::builder`. Start from [`Router::builder`].
pub struct RouterBuilder {
    cfg: RouterConfig,
    cameras: Vec<RgbdCamera>,
    trace: Option<Arc<EventTrace>>,
    pool: Option<Arc<WorkerPool>>,
}

impl RouterBuilder {
    /// Encode sharing on/off (`false` = naive per-subscriber fan-out).
    pub fn sharing(mut self, sharing: bool) -> Self {
        self.cfg.sharing = sharing;
        self
    }

    /// Attach a causal event trace. The SFU records as party 1; every
    /// downlink session and decode stand-in records as party
    /// [`subscriber_party`] — including subscribers added later.
    pub fn trace(mut self, trace: Arc<EventTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Worker pool for the sharded passes (defaults to the process-global
    /// pool).
    pub fn worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Validate and build the router.
    pub fn build(self) -> Result<Router, RouterError> {
        if self.cameras.is_empty() {
            return Err(RouterError::InvalidConfig {
                field: "cameras",
                message: "SFU needs a capture rig".into(),
            });
        }

        let k = self.cameras[0].intrinsics;
        let layout = TileLayout::new(k.width as usize, k.height as usize, self.cameras.len());
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = RouterMetrics::new(&registry);
        Ok(Router {
            cfg: self.cfg,
            cameras: self.cameras,
            layout,
            pool: self.pool.unwrap_or_else(|| livo_runtime::global().clone()),
            registry,
            metrics,
            subscribers: BTreeMap::new(),
            clusters: Vec::new(),
            next_id: 0,
            next_cluster_key: 0,
            frame_idx: 0,
            membership_dirty: false,
            now: 0,
            trace: self.trace,
        })
    }
}

/// What one cluster produced for one frame.
pub struct ClusterOutput {
    /// Stable cluster identity, assigned at cluster creation and kept
    /// across reclusters that preserve any member overlap.
    pub key: u64,
    /// Member subscriber ids, seed first.
    pub members: Vec<SubscriberId>,
    /// The shared encodes.
    pub color: EncodedFrame,
    pub depth: EncodedFrame,
    /// Always `None`: the second, re-quantised encode of a cluster is gone
    /// and `benchmark/src/sfu.rs` still reads the name — removed with
    /// ROADMAP item 3's benchmark PR.
    pub low: Option<(EncodedFrame, EncodedFrame)>,
    /// Fraction of valid pixels the union cull kept.
    pub keep_fraction: f64,
    /// Media rate the shared encode was capped at, bits/second.
    pub target_bps: f64,
    /// Sender-side reconstruction error of the shared encode, `(colour
    /// luma, depth mm)`, fed to the members' RMSE-balancing splitters.
    /// Measured only on frames where some member's splitter is due.
    pub rmse: Option<(f64, f64)>,
    /// When this frame's shared encode is an intra that had a
    /// predecessor on the same chain: the virtual-time gap since that
    /// predecessor, µs. The storm-guard tests assert it never drops
    /// below the cooldown.
    pub shared_intra_gap_us: Option<u64>,
}

/// Result of routing one frame.
pub struct RouteSummary {
    /// Sequence number embedded in the forwarded canvases.
    pub seq: u32,
    /// Cull+encode passes this frame (= number of clusters).
    pub encode_passes: u64,
    /// Always 0: there is no second encode per cluster, and
    /// `benchmark/src/sfu.rs` still reads the name — removed with ROADMAP
    /// item 3's benchmark PR.
    pub low_variant_passes: u64,
    pub clusters: Vec<ClusterOutput>,
}

/// Intra scheduling state of a cluster's encoder chain.
///
/// A chain is *armed* by any intra request — new member, PLI fan-in,
/// decode failure — and *fires* at most once per
/// cooldown window. An armed chain that cannot fire stays armed, so the
/// deferred intra lands right after the window instead of being lost.
#[derive(Debug, Clone, Copy)]
struct ChainState {
    armed: bool,
    /// Virtual time of the chain's previous fired intra.
    last_intra: Option<Micros>,
}

impl ChainState {
    /// A brand-new chain: armed, so the first encode is an intra.
    fn fresh() -> Self {
        ChainState {
            armed: true,
            last_intra: None,
        }
    }

    fn arm(&mut self) {
        self.armed = true;
    }

    fn is_armed(&self) -> bool {
        self.armed
    }

    /// Fire if armed and outside the cooldown. `Some(gap)` means this
    /// encode must be an intra; the inner value is the µs gap to the
    /// chain's previous intra (None for the chain's first).
    fn try_fire(&mut self, now: Micros, cooldown_us: u64) -> Option<Option<u64>> {
        if !self.armed {
            return None;
        }
        if let Some(last) = self.last_intra {
            if now.saturating_sub(last) < cooldown_us {
                return None;
            }
        }
        self.armed = false;
        let gap = self.last_intra.map(|last| now.saturating_sub(last));
        self.last_intra = Some(now);
        Some(gap)
    }
}

/// Per-cluster encoder state. Encoders are stateful (open GOP, P chains),
/// so they live with the cluster across frames; the cluster's identity is
/// a creation-ordered key, and reclustering reuses the state (and the P
/// chains) of the old cluster with the largest member overlap — so losing
/// the lowest-id member no longer resets the survivors' chain.
struct ClusterState {
    key: u64,
    members: Vec<SubscriberId>,
    /// Union-cull state and the shared encoder pair, joining its colour ∥
    /// depth encode on the router's pool.
    sender: SenderStage,
    chain: ChainState,
}

impl ClusterState {
    fn new(
        key: u64,
        members: Vec<SubscriberId>,
        layout: TileLayout,
        registry: &Arc<MetricsRegistry>,
        pool: &Arc<WorkerPool>,
    ) -> Self {
        let mut sender = SenderStage::new(layout, DepthEncoding::ScaledY16, 2);
        sender.attach_cull_telemetry(registry);
        sender.set_worker_pool(pool.clone());
        ClusterState {
            key,
            members,
            sender,
            chain: ChainState::fresh(),
        }
    }
}

/// Pre-computed per-cluster work order, derived from member estimates
/// before the parallel encode pass (the pass itself must not touch the
/// subscribers).
struct ClusterJob {
    frusta: Vec<Frustum>,
    rate: Rate,
    target_bps: f64,
    force_key: bool,
    shared_intra_gap_us: Option<u64>,
    /// Some member's splitter takes a measurement this frame.
    measure: bool,
}

/// Metric handles resolved once at construction so the per-frame path
/// never touches the registry's name map.
struct RouterMetrics {
    encode_passes: Arc<Counter>,
    shared_intras: Arc<Counter>,
    deferred_intras: Arc<Counter>,
    pli_fanin: Arc<Counter>,
    session_ticks: Arc<Counter>,
    reclusters: Arc<Counter>,
    joins: Arc<Counter>,
    leaves: Arc<Counter>,
    regroups: Arc<Counter>,
    clusters_gauge: Arc<Gauge>,
    route_ms: Arc<Histogram>,
    encode_ms: Arc<Histogram>,
    keep_fraction: Arc<Histogram>,
}

impl RouterMetrics {
    fn new(reg: &Arc<MetricsRegistry>) -> Self {
        RouterMetrics {
            encode_passes: reg.counter("sfu.encode_passes"),
            shared_intras: reg.counter("sfu.shared_intras"),
            deferred_intras: reg.counter("sfu.deferred_intras"),
            pli_fanin: reg.counter("sfu.pli_fanin"),
            session_ticks: reg.counter("sfu.session_ticks"),
            reclusters: reg.counter("sfu.reclusters"),
            joins: reg.counter("sfu.joins"),
            leaves: reg.counter("sfu.leaves"),
            regroups: reg.counter("sfu.regroups"),
            clusters_gauge: reg.gauge("sfu.clusters"),
            route_ms: reg.histogram("sfu.route_ms"),
            encode_ms: reg.histogram("sfu.encode_ms"),
            keep_fraction: reg.histogram("sfu.keep_fraction"),
        }
    }
}

/// Per-cluster send-ready payloads for the fan-out shards: the encoded
/// bitstreams as shared [`Bytes`] (refcounted per member, not copied).
struct FanPayload {
    color: Bytes,
    color_key: bool,
    depth: Bytes,
    depth_key: bool,
    /// A T1 pair: nothing predicts from it, so a downlink may skip it.
    t1: bool,
    rmse: Option<(f64, f64)>,
}

/// The selective forwarding unit.
pub struct Router {
    cfg: RouterConfig,
    cameras: Vec<RgbdCamera>,
    layout: TileLayout,
    pool: Arc<WorkerPool>,
    registry: Arc<MetricsRegistry>,
    metrics: RouterMetrics,
    subscribers: BTreeMap<SubscriberId, Subscriber>,
    clusters: Vec<ClusterState>,
    next_id: u64,
    next_cluster_key: u64,
    frame_idx: u64,
    membership_dirty: bool,
    /// The latest instant routed or ticked: what a churn trace record
    /// carries.
    now: Micros,
    trace: Option<Arc<EventTrace>>,
}

/// Trace/metric party ids in an SFU topology: 0 is the capture source,
/// 1 the SFU itself, `2 + raw id` each subscriber.
pub fn subscriber_party(id: SubscriberId) -> u16 {
    2 + id.raw() as u16
}

impl Router {
    /// Start a validating [`RouterBuilder`] for the given capture rig.
    /// The tile layout (and therefore every cluster encoder's canvas) is
    /// fixed by the rig.
    pub fn builder(cameras: Vec<RgbdCamera>) -> RouterBuilder {
        RouterBuilder {
            cfg: RouterConfig::default(),
            cameras,
            trace: None,
            pool: None,
        }
    }

    /// The router's metrics registry (`sfu.*` and per-subscriber
    /// `sfu.sub.<name>.*` families).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Add a subscriber on its own emulated downlink. The returned
    /// [`SubscriberId`] keys [`observe_pose`](Self::observe_pose),
    /// [`subscriber`](Self::subscriber) and the cluster reports.
    ///
    /// The joiner is folded into a cluster at the next `route_frame`; it
    /// arms (only) that cluster's shared chain, so it catches up at the
    /// chain's next guarded intra without perturbing other clusters.
    pub fn add_subscriber(
        &mut self,
        cfg: SubscriberConfig,
        trace: BandwidthTrace,
    ) -> Result<SubscriberId, RouterError> {
        if self.subscribers.len() >= MAX_SUBSCRIBERS {
            return Err(RouterError::AtCapacity {
                max: MAX_SUBSCRIBERS,
            });
        }
        // Display names flow into metric names, folded so a name like
        // "producer-desk" still yields convention-clean metrics; two names
        // that fold alike would share one set of counters.
        let safe = metric_safe(&cfg.name);
        let taken = |s: &Subscriber| metric_safe(&s.name) == safe;
        if self.subscribers.values().any(taken) {
            return Err(RouterError::DuplicateSubscriber(cfg.name));
        }
        let id = SubscriberId(self.next_id);
        self.next_id += 1;
        let mut sub = Subscriber::new(cfg, trace, &self.pool);
        sub.t1_dropped = self.registry.counter(&format!("sfu.sub.{safe}.t1_dropped"));
        if let Some(tr) = &self.trace {
            sub.attach_trace(tr.clone(), subscriber_party(id));
        }
        self.subscribers.insert(id, sub);
        self.membership_dirty = true;
        self.metrics.joins.inc();
        self.trace_churn(id, kind::JOIN, id.raw());
        Ok(id)
    }

    /// Tear down a subscriber's downlink. Its cluster is patched in
    /// place: siblings keep their members order, encoders and P chains —
    /// a leave never costs the survivors an intra.
    pub fn remove_subscriber(&mut self, id: SubscriberId) -> Result<(), RouterError> {
        if self.subscribers.remove(&id).is_none() {
            return Err(RouterError::UnknownSubscriber(id));
        }
        for c in &mut self.clusters {
            if let Some(pos) = c.members.iter().position(|&m| m == id) {
                c.members.remove(pos);
                break;
            }
        }
        self.clusters.retain(|c| !c.members.is_empty());
        self.metrics.clusters_gauge.set(self.clusters.len() as f64);
        self.metrics.leaves.inc();
        self.trace_churn(id, kind::LEAVE, id.raw());
        Ok(())
    }

    /// The subscriber behind `id`, or `None` once it has been removed.
    pub fn subscriber(&self, id: SubscriberId) -> Option<&Subscriber> {
        self.subscribers.get(&id)
    }

    /// Feed subscriber `id`'s (feedback-delayed) head pose.
    pub fn observe_pose(&mut self, id: SubscriberId, pose: &Pose) -> Result<(), RouterError> {
        self.subscribers
            .get_mut(&id)
            .ok_or(RouterError::UnknownSubscriber(id))?
            .predictor
            .observe(pose);
        Ok(())
    }

    /// Current cluster membership, `(key, members)` per cluster.
    pub fn cluster_membership(&self) -> Vec<(u64, Vec<SubscriberId>)> {
        self.clusters
            .iter()
            .map(|c| (c.key, c.members.clone()))
            .collect()
    }

    /// Arm the chain of `id`'s cluster (PLI / resync fan-in).
    fn arm_member_chain(&mut self, id: SubscriberId) {
        if let Some(c) = self.clusters.iter_mut().find(|c| c.members.contains(&id)) {
            c.chain.arm();
        }
    }

    /// Step every downlink and display clock along the 1 ms grid from `now`
    /// to the first grid instant at or after `until`, and return that
    /// instant, not yet ticked: routing frame `f` there and running to
    /// `due(f + 1)` is the two-party loop's exact schedule.
    pub fn run_until(&mut self, mut now: Micros, until: Micros) -> Micros {
        while now < until {
            self.tick(now);
            now += TICK_US;
        }
        now
    }

    /// One grid instant of [`run_until`](Self::run_until): for each
    /// subscriber whose session has something due, tick it, run its decode
    /// stand-in (whose resync requests travel up the downlink's feedback
    /// path as PLIs) and fan the PLIs that reached the SFU into its cluster's
    /// chain guard; then decide every display slot due at `now`. Only session
    /// ticks count in `sfu.session_ticks`. Public for the whole-call
    /// benchmark's own loop.
    pub fn tick(&mut self, now: Micros) {
        self.now = now;
        let mut need_key: Vec<SubscriberId> = Vec::new();
        let mut ticked = 0;
        for (&id, sub) in self.subscribers.iter_mut() {
            if sub.session.next_event() <= now {
                ticked += 1;
                sub.session.tick(now);
                sub.ingest_arrivals(now);
                if sub.session.take_pli(now) {
                    self.metrics.pli_fanin.inc();
                    need_key.push(id);
                }
            }
            sub.display(now);
        }
        self.metrics.session_ticks.add(ticked);
        for id in need_key {
            self.arm_member_chain(id);
        }
    }

    /// Recompute clusters from this frame's predicted view volumes (`ids`
    /// and `volumes` in subscriber order) and reconcile encoder state: each
    /// new group reuses the old cluster with the largest member overlap,
    /// keeping its encoders and P chains. Added members arm (only) the
    /// destination's chain; members migrating between clusters count in
    /// `sfu.regroups`.
    fn recluster(&mut self, ids: &[SubscriberId], volumes: &[ViewVolume]) {
        let groups_idx: Vec<Vec<usize>> = if self.cfg.sharing {
            cluster_views(volumes)
        } else {
            (0..ids.len()).map(|i| vec![i]).collect()
        };
        let prev_key: BTreeMap<SubscriberId, u64> = self
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().map(move |&m| (m, c.key)))
            .collect();
        let mut old: Vec<Option<ClusterState>> = self.clusters.drain(..).map(Some).collect();
        for group in groups_idx {
            let members: Vec<SubscriberId> = group.into_iter().map(|i| ids[i]).collect();
            // Best-overlap reuse: keeps the survivors' P chain alive even
            // when the old seed left (greedy in group order, so a split
            // deterministically keeps the chain on the first fragment).
            let mut best: Option<(usize, usize)> = None;
            for (slot, state) in old.iter().enumerate() {
                if let Some(c) = state {
                    let overlap = c.members.iter().filter(|m| members.contains(m)).count();
                    if overlap > 0 && best.is_none_or(|(_, b)| overlap > b) {
                        best = Some((slot, overlap));
                    }
                }
            }
            match best.and_then(|(slot, _)| old[slot].take()) {
                Some(mut state) => {
                    let added: Vec<SubscriberId> = members
                        .iter()
                        .filter(|m| !state.members.contains(m))
                        .copied()
                        .collect();
                    if !added.is_empty() {
                        state.chain.arm();
                    }
                    for &m in &added {
                        if let Some(&from) = prev_key.get(&m) {
                            if from != state.key {
                                self.metrics.regroups.inc();
                                self.trace_churn(m, kind::REGROUP, state.key);
                            }
                        }
                    }
                    state.members = members;
                    self.clusters.push(state);
                }
                None => {
                    let key = self.next_cluster_key;
                    self.next_cluster_key += 1;
                    self.clusters.push(ClusterState::new(
                        key,
                        members,
                        self.layout,
                        &self.registry,
                        &self.pool,
                    ));
                }
            }
        }
        self.membership_dirty = false;
        self.metrics.reclusters.inc();
        self.metrics.clusters_gauge.set(self.clusters.len() as f64);
    }

    /// Record one join, leave or regroup on the event trace, on the
    /// subscriber's track (churn shows up in the Chrome export there); `arg`
    /// is the subscriber id, or the destination cluster key of a regroup.
    fn trace_churn(&self, id: SubscriberId, k: &'static str, arg: u64) {
        if let Some(tr) = &self.trace {
            tr.record(
                self.now,
                NO_FRAME,
                subscriber_party(id),
                "sfu.churn",
                k,
                arg as i64,
            );
        }
    }

    /// Build the per-cluster work orders (serial planning phase): rates
    /// and frusta come from the members — the frusta from this frame's
    /// predictions (`ids` / `volumes`, as for [`Self::recluster`]) — and an
    /// armed chain is resolved against its cooldown — one RTT of the
    /// cluster's slowest member, the keyframe-storm guard — here, so the
    /// parallel encode pass never touches subscriber or chain state.
    fn plan_jobs(
        &mut self,
        now: Micros,
        ids: &[SubscriberId],
        volumes: &[ViewVolume],
    ) -> Vec<ClusterJob> {
        let mut jobs: Vec<ClusterJob> = Vec::with_capacity(self.clusters.len());
        for state in &mut self.clusters {
            let estimates: Vec<f64> = state
                .members
                .iter()
                .map(|&m| self.subscribers[&m].session.estimate_bps())
                .collect();
            let leader = estimates.iter().cloned().fold(f64::MIN, f64::max);
            let leader_idx = estimates.iter().position(|&e| e == leader).unwrap_or(0);
            let split = self.subscribers[&state.members[leader_idx]]
                .splitter
                .split();
            let cooldown_us = state
                .members
                .iter()
                .map(|&m| 2.0 * self.subscribers[&m].session.one_way_delay_us())
                .fold(0.0f64, f64::max) as u64;

            let measure = state
                .members
                .iter()
                .any(|m| self.subscribers[m].splitter.next_measurement_due());
            let fired = state.chain.try_fire(now, cooldown_us);
            if fired.is_none() && state.chain.is_armed() {
                self.metrics.deferred_intras.inc();
            }
            // A T1 gets the leader's rate; a T0 (or intra) no more than the
            // slowest member carries at half the frame rate.
            let slowest = estimates.iter().cloned().fold(f64::MAX, f64::min);
            let t1 = fired.is_none() && state.sender.next_temporal_id() == 1;
            let media =
                leader.min(if t1 { f64::MAX } else { 2.0 * slowest }) * MEDIA_SHARE / FPS as f64;
            let frusta: Vec<Frustum> = state
                .members
                .iter()
                .map(|m| volumes[ids.binary_search(m).expect("member is live")].frustum)
                .collect();
            jobs.push(ClusterJob {
                frusta,
                rate: Rate::Budget {
                    color_bits: (media * (1.0 - split)) as u64,
                    depth_bits: (media * split) as u64,
                },
                target_bps: leader * MEDIA_SHARE,
                force_key: fired.is_some(),
                shared_intra_gap_us: fired.flatten(),
                measure,
            });
        }
        jobs
    }

    /// Route one captured frame: cluster, union-cull + tile + encode once
    /// per cluster (clusters in parallel), then shard the per-member
    /// packetisation/send across the pool. `views` is the raw (un-culled)
    /// camera array for this frame. With no live subscribers the frame
    /// clock still advances and an empty summary is returned.
    pub fn route_frame(&mut self, now: Micros, views: &[RgbdFrame]) -> RouteSummary {
        assert_eq!(views.len(), self.cameras.len(), "views must match the rig");
        let seq = self.frame_idx as u32;
        self.now = now;
        if self.subscribers.is_empty() {
            self.clusters.clear();
            self.frame_idx += 1;
            return RouteSummary {
                seq,
                encode_passes: 0,
                low_variant_passes: 0,
                clusters: Vec::new(),
            };
        }
        let t0 = Instant::now();
        let elapsed_ms = || t0.elapsed().as_secs_f64() * 1e3;

        // Predictor horizons track each downlink's RTT (+ processing
        // slack), exactly like the two-party sender. Each subscriber's view
        // is predicted once per frame, in id order; clustering and the
        // cluster jobs both read it.
        let (ids, volumes): (Vec<SubscriberId>, Vec<ViewVolume>) = self
            .subscribers
            .iter_mut()
            .map(|(&id, sub)| {
                let owd_s = sub.session.one_way_delay_us() / 1e6;
                sub.predictor.observe_rtt(2.0 * owd_s + 0.03);
                let (pose, frustum) = sub.predictor.predicted_view();
                let params = *sub.predictor.params();
                (
                    id,
                    ViewVolume {
                        frustum,
                        pose,
                        params,
                    },
                )
            })
            .unzip();

        if self.clusters.is_empty()
            || self.membership_dirty
            || self.frame_idx.is_multiple_of(RECLUSTER_EVERY)
        {
            self.recluster(&ids, &volumes);
        }

        let jobs = self.plan_jobs(now, &ids, &volumes);

        // Phase 2: one union-cull + tile + encode pass per cluster, in
        // parallel, each joining its colour ∥ depth encode on the pool. The
        // caller runs the last pass itself, so a lone cluster's join finds
        // the worker free instead of racing it for the pass.
        let mut outputs: Vec<Option<ClusterOutput>> = Vec::new();
        outputs.resize_with(self.clusters.len(), || None);
        {
            let cameras = &self.cameras;
            let frame_idx = self.frame_idx;
            let pass = &|((state, job), out): ((&mut ClusterState, &ClusterJob), &mut _)| {
                let mut culled = views.to_vec();
                let cull_stats = state.sender.cull(&mut culled, cameras, &job.frusta);
                let canvases = state.sender.compose(&culled, seq);
                if job.force_key {
                    state.sender.force_keyframe();
                }
                let (color, depth) = state.sender.encode(&canvases, job.rate, frame_idx, now);
                // Sender-side reconstruction error, for the splitters that
                // measure this frame.
                let rmse = job
                    .measure
                    .then(|| state.sender.rmse(&canvases, &color, &depth));
                *out = Some(ClusterOutput {
                    key: state.key,
                    members: state.members.clone(),
                    color,
                    depth,
                    low: None,
                    keep_fraction: cull_stats.map_or(1.0, |s| s.keep_fraction()),
                    target_bps: job.target_bps,
                    rmse,
                    shared_intra_gap_us: job.shared_intra_gap_us,
                });
            };
            let mut passes = self.clusters.iter_mut().zip(&jobs).zip(outputs.iter_mut());
            let last = passes.next_back();
            self.pool.scope(|s| {
                for p in passes {
                    s.spawn(move || pass(p));
                }
                if let Some(p) = last {
                    pass(p);
                }
            });
        }
        let clusters: Vec<ClusterOutput> = outputs
            .into_iter()
            .map(|o| o.expect("cluster task completed"))
            .collect();
        self.metrics.encode_ms.record(elapsed_ms());

        // Per-cluster bookkeeping + payload prep (serial, cheap): one
        // shared `Bytes` per bitstream, refcount-cloned per member below.
        let mut payloads: Vec<FanPayload> = Vec::with_capacity(clusters.len());
        let mut assign: BTreeMap<SubscriberId, usize> = BTreeMap::new();
        for (ci, out) in clusters.iter().enumerate() {
            self.metrics.keep_fraction.record(out.keep_fraction);
            if let Some(tr) = &self.trace {
                // One shared encode event per cluster on the SFU track;
                // arg: shared bitstream size in bits.
                tr.record(
                    now,
                    self.frame_idx,
                    1,
                    intern(&format!("sfu.cluster{}", out.key)),
                    kind::ENCODE,
                    (out.color.data.len() + out.depth.data.len()) as i64 * 8,
                );
            }
            if out.color.frame_type == FrameType::Intra {
                self.metrics.shared_intras.inc();
            }
            payloads.push(FanPayload {
                color: Bytes::from(out.color.data.clone()),
                color_key: out.color.frame_type == FrameType::Intra,
                depth: Bytes::from(out.depth.data.clone()),
                depth_key: out.depth.frame_type == FrameType::Intra,
                t1: out.color.temporal_id == 1,
                rmse: out.rmse,
            });
            for &m in &out.members {
                assign.insert(m, ci);
            }
        }

        // Phase 3: sharded fan-out. Each shard owns a contiguous run of
        // subscribers; all cross-shard data (payloads, assignment) is
        // read-only, so shards are independent and the forwarded streams
        // are identical at any pool size.
        {
            let frame_idx = self.frame_idx;
            let payloads = &payloads;
            let assign = &assign;
            let mut fan: Vec<(SubscriberId, &mut Subscriber)> = self
                .subscribers
                .iter_mut()
                .map(|(&id, s)| (id, s))
                .collect();
            let pool = self.pool.clone();
            pool.for_each_chunk_mut(&mut fan, |chunk| {
                for (id, sub) in chunk.iter_mut() {
                    let Some(&ci) = assign.get(id) else {
                        continue;
                    };
                    let p = &payloads[ci];
                    if sub.splitter.measurement_due() {
                        let (rmse_color, rmse_depth_mm) =
                            p.rmse.expect("plan_jobs measures for every due member");
                        sub.splitter.update(rmse_depth_mm, rmse_color);
                    }
                    if p.t1 && !sub.takes_t1(8 * (p.color.len() + p.depth.len()) as u64) {
                        sub.t1_dropped.inc();
                        continue;
                    }
                    sub.session.send_frame(
                        now,
                        StreamId::Color,
                        frame_idx,
                        p.color.clone(),
                        p.color_key,
                    );
                    sub.session.send_frame(
                        now,
                        StreamId::Depth,
                        frame_idx,
                        p.depth.clone(),
                        p.depth_key,
                    );
                    sub.stats.frames_forwarded += 1;
                    // The display clock sees what was sent, so a T1 this
                    // downlink dropped is a `not_sent` stall, not a late one.
                    if let Some(standin) = sub.standin.as_mut() {
                        standin.clock.captured(seq, now);
                    }
                }
            });
        }

        self.metrics.encode_passes.add(clusters.len() as u64);
        self.metrics.clusters_gauge.set(clusters.len() as f64);
        self.frame_idx += 1;
        self.metrics.route_ms.record(elapsed_ms());
        RouteSummary {
            seq,
            encode_passes: clusters.len() as u64,
            low_variant_passes: 0,
            clusters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_capture::render::render_views_at;
    use livo_capture::{datasets::DatasetPreset, rig, VideoId};
    use livo_core::stage::StallCause;
    use livo_math::{CameraIntrinsics, Vec3};

    fn tiny_rig() -> Vec<RgbdCamera> {
        rig::camera_ring(
            2,
            2.5,
            1.4,
            Vec3::new(0.0, 1.0, 0.0),
            CameraIntrinsics::kinect_depth(0.05),
        )
    }

    fn looking(yaw: f32) -> Pose {
        let eye = Vec3::new(0.0, 1.5, 2.0);
        let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
        Pose::look_at(eye, eye + dir, Vec3::new(0.0, 1.0, 0.0))
    }

    fn views_at(cams: &[RgbdCamera], t_s: f32, seed: u32) -> Vec<RgbdFrame> {
        let preset = DatasetPreset::load(VideoId::Band2);
        let snap = preset.scene.at(t_s);
        render_views_at(&WorkerPool::new(1), cams, &snap, seed)
    }

    fn trace() -> BandwidthTrace {
        BandwidthTrace::constant(40.0, 10.0)
    }

    fn add(router: &mut Router, name: &str) -> SubscriberId {
        router
            .add_subscriber(SubscriberConfig::new(name), trace())
            .expect("add subscriber")
    }

    #[test]
    fn builder_validates_config() {
        assert!(matches!(
            Router::builder(Vec::new()).build(),
            Err(RouterError::InvalidConfig {
                field: "cameras",
                ..
            })
        ));
        assert!(Router::builder(tiny_rig()).build().is_ok());
    }

    #[test]
    fn lifecycle_errors_are_typed() {
        let mut router = Router::builder(tiny_rig()).build().unwrap();
        let a = add(&mut router, "a");
        assert_eq!(
            router
                .add_subscriber(SubscriberConfig::new("a"), trace())
                .unwrap_err(),
            RouterError::DuplicateSubscriber("a".into())
        );
        // A name that folds to a live subscriber's metric segment is taken
        // too: both would publish `sfu.sub.a.*`.
        assert_eq!(
            router
                .add_subscriber(SubscriberConfig::new("A"), trace())
                .unwrap_err(),
            RouterError::DuplicateSubscriber("A".into())
        );
        let b = add(&mut router, "b");
        // Fill the router to its cap with subscribers that run no decoder.
        for i in 2..MAX_SUBSCRIBERS {
            let cfg = SubscriberConfig::new(format!("fill{i}")).without_standin();
            router.add_subscriber(cfg, trace()).unwrap();
        }
        assert_eq!(
            router
                .add_subscriber(SubscriberConfig::new("c"), trace())
                .unwrap_err(),
            RouterError::AtCapacity { max: 4096 }
        );
        assert!(router.remove_subscriber(a).is_ok());
        assert_eq!(
            router.remove_subscriber(a).unwrap_err(),
            RouterError::UnknownSubscriber(a)
        );
        // A stale id reads as None, not a panic; the name is free again
        // and the new joiner gets a fresh id.
        assert!(router.subscriber(a).is_none());
        assert!(router.subscriber(b).is_some());
        let a2 = add(&mut router, "a");
        assert_ne!(a2, a, "ids are never reused");
        assert!(router.observe_pose(a, &looking(0.0)).is_err());
        assert!(router.observe_pose(a2, &looking(0.0)).is_ok());
    }

    #[test]
    fn chain_guard_defers_and_reports_gaps() {
        let mut chain = ChainState::fresh();
        // Fresh chain fires immediately, no predecessor.
        assert_eq!(chain.try_fire(1_000, 40_000), Some(None));
        assert_eq!(chain.try_fire(2_000, 40_000), None, "not armed");
        chain.arm();
        assert_eq!(chain.try_fire(10_000, 40_000), None, "inside cooldown");
        assert!(chain.is_armed(), "deferred request stays armed");
        assert_eq!(chain.try_fire(50_000, 40_000), Some(Some(49_000)));
        assert!(!chain.is_armed());
    }

    #[test]
    fn a_pli_within_one_rtt_of_a_shared_intra_arms_no_second_intra() {
        let mut router = Router::builder(tiny_rig()).build().unwrap();
        let id = add(&mut router, "a");
        let cams = router.cameras.clone();
        // Route frame `f`, then (optionally) let a lane of the member ask
        // for a keyframe about frame `broken` at the frame's instant, and
        // tick through the frame interval; whether `f` went out as an intra.
        let frame = |router: &mut Router, f: u32, ask: Option<(StreamId, u64)>| {
            router.observe_pose(id, &looking(0.0)).unwrap();
            let now = f as Micros * 1_000_000 / 30;
            let out = router.route_frame(now, &views_at(&cams, f as f32 / 30.0, f));
            if let Some((stream, broken)) = ask {
                let sub = router.subscribers.get_mut(&id).unwrap();
                sub.session.request_keyframe(now, stream, broken);
            }
            for t in (now..now + 33_334).step_by(1_000) {
                router.tick(t);
            }
            out.clusters[0].color.frame_type == FrameType::Intra
        };
        let fanin = |router: &Router| router.registry().snapshot().counter("sfu.pli_fanin");
        assert!(
            frame(&mut router, 0, None),
            "a fresh chain opens with an intra"
        );
        // The colour lane breaks on frame 1: its request reaches the SFU
        // one feedback delay (20 ms) later and arms the chain.
        assert!(!frame(&mut router, 1, Some((StreamId::Color, 1))));
        // The depth lane, too, broke on frame 1, and asks as the intra this
        // armed goes out; the request reaches the SFU 20 ms later, within
        // one RTT (≈ 40 ms) of that intra, which answers it.
        assert!(
            frame(&mut router, 2, Some((StreamId::Depth, 1))),
            "the PLI armed the chain"
        );
        assert!(!frame(&mut router, 3, None), "the PLI armed a second intra");
        assert_eq!(fanin(&router), Some(1));
        // A break after intra 2 arms the chain again.
        assert!(!frame(&mut router, 4, Some((StreamId::Color, 4))));
        assert!(
            frame(&mut router, 5, None),
            "a PLI after the intra arms the chain"
        );
        assert_eq!(fanin(&router), Some(2));
        assert_eq!(router.subscriber(id).unwrap().session().stats().plis, 3);
    }

    #[test]
    fn aligned_subscribers_share_one_encode_pass() {
        let mut router = Router::builder(tiny_rig()).build().unwrap();
        let ids: Vec<SubscriberId> = (0..3).map(|i| add(&mut router, &format!("s{i}"))).collect();
        let pose = looking(0.0);
        for &id in &ids {
            router.observe_pose(id, &pose).unwrap();
        }
        let views = views_at(&router.cameras.clone(), 0.0, 0);
        let out = router.route_frame(0, &views);
        assert_eq!(out.encode_passes, 1, "aligned frusta should share one pass");
        assert_eq!(out.clusters[0].members, ids);
        // First pass is the cluster's intra, with no predecessor gap.
        assert_eq!(out.clusters[0].color.frame_type, FrameType::Intra);
        assert_eq!(out.clusters[0].shared_intra_gap_us, None);
        let snap = router.registry().snapshot();
        assert_eq!(snap.counter("sfu.encode_passes"), Some(1));
        assert_eq!(snap.counter("sfu.joins"), Some(3));
    }

    #[test]
    fn naive_mode_encodes_once_per_subscriber() {
        let mut router = Router::builder(tiny_rig()).sharing(false).build().unwrap();
        let ids: Vec<SubscriberId> = (0..3).map(|i| add(&mut router, &format!("s{i}"))).collect();
        let pose = looking(0.0);
        for &id in &ids {
            router.observe_pose(id, &pose).unwrap();
        }
        let views = views_at(&router.cameras.clone(), 0.0, 0);
        let out = router.route_frame(0, &views);
        assert_eq!(out.encode_passes, 3);
        assert_eq!(out.clusters.len(), 3);
    }

    #[test]
    fn opposed_subscribers_split_clusters_and_reuse_encoder_state() {
        let mut router = Router::builder(tiny_rig()).build().unwrap();
        let ids: Vec<SubscriberId> = (0..4).map(|i| add(&mut router, &format!("s{i}"))).collect();
        let views = views_at(&router.cameras.clone(), 0.0, 0);
        let interval: Micros = 1_000_000 / 30;
        let mut now: Micros = 0;
        for frame in 0..4u32 {
            for (i, &id) in ids.iter().enumerate() {
                let yaw = if i % 2 == 0 {
                    0.0
                } else {
                    std::f32::consts::PI
                };
                router.observe_pose(id, &looking(yaw)).unwrap();
            }
            let out = router.route_frame(now, &views);
            assert_eq!(out.encode_passes, 2, "frame {frame}: two opposed clusters");
            if frame > 0 {
                // Established clusters keep their P chain between frames.
                assert_eq!(out.clusters[0].color.frame_type, FrameType::Inter);
            }
            now += interval;
            router.tick(now);
        }
        let membership = router.cluster_membership();
        assert_eq!(membership.len(), 2);
        assert_eq!(membership[0].1, vec![ids[0], ids[2]]);
        assert_eq!(membership[1].1, vec![ids[1], ids[3]]);
        // Each cluster built its cameras' ray tables once, not once per
        // routed frame.
        let snap = router.registry().snapshot();
        assert_eq!(
            snap.counter("cull.lut_rebuilds"),
            Some(2 * router.cameras.len() as u64)
        );
    }

    #[test]
    fn route_frame_with_no_subscribers_is_a_no_op() {
        let mut router = Router::builder(tiny_rig()).build().unwrap();
        let views = views_at(&router.cameras.clone(), 0.0, 0);
        let out = router.route_frame(0, &views);
        assert_eq!(out.encode_passes, 0);
        assert!(out.clusters.is_empty());
        // The frame clock still advances, so a later joiner starts on the
        // capture clock's sequence numbers.
        let id = add(&mut router, "late");
        router.observe_pose(id, &looking(0.0)).unwrap();
        let out = router.route_frame(33_333, &views);
        assert_eq!(out.seq, 1);
        assert_eq!(out.encode_passes, 1);
    }

    #[test]
    fn leave_keeps_sibling_p_chains_alive() {
        let mut router = Router::builder(tiny_rig()).build().unwrap();
        let ids: Vec<SubscriberId> = (0..3).map(|i| add(&mut router, &format!("s{i}"))).collect();
        let views = views_at(&router.cameras.clone(), 0.0, 0);
        let pose = looking(0.0);
        for &id in &ids {
            router.observe_pose(id, &pose).unwrap();
        }
        let out = router.route_frame(0, &views);
        assert_eq!(out.clusters[0].color.frame_type, FrameType::Intra);
        // s1 (a non-seed member) leaves: survivors stay on the P chain.
        router.remove_subscriber(ids[1]).unwrap();
        let out = router.route_frame(33_333, &views);
        assert_eq!(out.clusters[0].members, vec![ids[0], ids[2]]);
        assert_eq!(out.clusters[0].color.frame_type, FrameType::Inter);
        let leaves = |router: &Router| router.registry().snapshot().counter("sfu.leaves");
        assert_eq!(leaves(&router), Some(1));
        // Now the *seed* leaves; best-overlap reuse still keeps the chain.
        router.remove_subscriber(ids[0]).unwrap();
        let out = router.route_frame(66_666, &views);
        assert_eq!(out.clusters[0].members, vec![ids[2]]);
        assert_eq!(out.clusters[0].color.frame_type, FrameType::Inter);
        assert_eq!(leaves(&router), Some(2));
    }

    #[test]
    fn a_slow_member_settles_on_t0_and_arms_no_intra() {
        // The benchmark's rig: four cameras at 0.08x, a stream of ≈ 100
        // kbit a frame at the QP floor, far more than 1.5 Mbit/s carries.
        let cams = rig::camera_ring(
            4,
            2.5,
            1.4,
            Vec3::new(0.0, 1.0, 0.0),
            CameraIntrinsics::kinect_depth(0.08),
        );
        let clip: Vec<_> = (0..10)
            .map(|f| views_at(&cams, f as f32 / 30.0, f))
            .collect();
        let mut router = Router::builder(cams).build().unwrap();
        let link = |mbps| BandwidthTrace::constant(mbps, 6.0);
        let fast = router
            .add_subscriber(SubscriberConfig::new("fast"), link(50.0))
            .unwrap();
        let slow = router
            .add_subscriber(SubscriberConfig::new("slow"), link(1.5))
            .unwrap();
        let frames = 120u64;
        let (mut t1_late_half, mut dropped_half) = (0, 0);
        for f in 0..frames {
            for id in [fast, slow] {
                router.observe_pose(id, &looking(0.0)).unwrap();
            }
            let now = f * 1_000_000 / 30;
            let out = router.route_frame(now, &clip[(f % 10) as usize]);
            assert_eq!(out.encode_passes, 1, "one cluster");
            let t1 = out.clusters[0].color.temporal_id == 1;
            assert_eq!(t1, f % 2 == 1, "frame {f}: T0, T1 from the intra on");
            if t1 && f >= frames / 2 {
                t1_late_half += 1;
            }
            if f + 1 == frames / 2 {
                let snap = router.registry().snapshot();
                dropped_half = snap.counter("sfu.sub.slow.t1_dropped").unwrap();
            }
            for tick in now..now + 33_334 {
                if tick % 1_000 == 0 {
                    router.tick(tick);
                }
            }
        }
        let snap = router.registry().snapshot();
        let dropped = |name: &str| snap.counter(&format!("sfu.sub.{name}.t1_dropped")).unwrap();
        // The fast member receives every frame; the slow one, late in the
        // call, every T0 and no T1.
        assert_eq!(dropped("fast"), 0);
        assert_eq!(
            router.subscriber(fast).unwrap().stats().frames_forwarded,
            frames
        );
        let slow_sub = router.subscriber(slow).unwrap();
        assert!(dropped_half > 0);
        assert_eq!(dropped("slow") - dropped_half, t1_late_half);
        assert_eq!(slow_sub.stats().frames_forwarded + dropped("slow"), frames);
        // Only the first intra: the slow member never breaks its chain.
        assert_eq!(snap.counter("sfu.shared_intras"), Some(1));
        assert_eq!(slow_sub.session().stats().plis, 0);
        assert!(slow_sub.stats().frames_decoded >= 2 * (frames / 2 - 10));
        // The slow member's display stalls on the T1s it was not sent, and
        // none of those ever entered its clock: what the clock still holds
        // from the late half is T0s alone.
        let not_sent = slow_sub.stats().stalled[StallCause::NotSent as usize];
        assert!(not_sent > 0, "{:?}", slow_sub.stats());
        let clock = &slow_sub.standin.as_ref().unwrap().clock;
        let held: Vec<u32> = clock.handed().collect();
        assert!(held.iter().any(|&seq| seq as u64 >= frames / 2), "{held:?}");
        assert!(held.iter().all(|&seq| seq % 2 == 0), "{held:?}");
        // Every forwarded pair went out as two frames.
        for id in [fast, slow] {
            let sub = router.subscriber(id).unwrap();
            assert_eq!(
                sub.session().stats().frames_sent,
                2 * sub.stats().frames_forwarded
            );
        }
    }

    #[test]
    fn standin_decodes_on_the_router_pool() {
        // The stand-in's only pool work is its two lane tasks per tick with
        // arrivals (a decoder opens no scope of its own), so a one- and a
        // two-thread pool count the same tasks. Both are the router's pool,
        // not the process-wide one.
        let run = |threads: usize, standin: bool| {
            let pool = Arc::new(WorkerPool::new(threads));
            let registry = Arc::new(MetricsRegistry::new());
            pool.attach_telemetry(&registry, "own.pool");
            let mut router = Router::builder(tiny_rig())
                .worker_pool(pool)
                .build()
                .unwrap();
            let mut cfg = SubscriberConfig::new("viewer");
            cfg.standin = standin;
            let id = router.add_subscriber(cfg, trace()).unwrap();
            router.observe_pose(id, &looking(0.0)).unwrap();
            let views = views_at(&router.cameras.clone(), 0.0, 0);
            for now in (0..400_000).step_by(1_000) {
                if now % 33_000 == 0 {
                    router.route_frame(now, &views);
                }
                router.tick(now);
            }
            let decoded = router.subscriber(id).unwrap().stats().frames_decoded;
            let tasks = registry.snapshot().counter("own.pool.tasks").unwrap();
            (tasks, decoded)
        };
        let (serial, decoded) = run(1, true);
        let (pooled, decoded_pooled) = run(2, true);
        assert!(
            decoded >= 10 && decoded == decoded_pooled,
            "{decoded} frames"
        );
        assert_eq!(pooled, serial);
        // And the lane tasks are the stand-in's: none without it.
        let (bare, _) = run(1, false);
        assert!(serial - bare >= decoded && (serial - bare) % 2 == 0);
    }

    /// One subscriber's end-of-run outcome: its session's and its own
    /// counters.
    fn outcome(sub: &Subscriber) -> (livo_transport::SessionStats, crate::SubscriberStats) {
        (sub.session().stats().clone(), *sub.stats())
    }

    /// Step `router` from `now` to `until`: through `run_until`, or with a
    /// tick at every millisecond.
    fn advance(router: &mut Router, mut now: Micros, until: Micros, every_ms: bool) -> Micros {
        if !every_ms {
            return router.run_until(now, until);
        }
        while now < until {
            router.tick(now);
            now += TICK_US;
        }
        now
    }

    /// `run_until` is a tick every millisecond; this pins it, so a drive
    /// loop that skips instants must leave every outcome as it is.
    #[test]
    fn run_until_equals_a_tick_every_millisecond() {
        use livo_core::stage::due;
        use livo_transport::LinkConfig;
        let cams = tiny_rig();
        let clip: Vec<_> = (0..20)
            .map(|f| views_at(&cams, f as f32 / 30.0, f))
            .collect();
        // Three lossy downlinks, one without a stand-in, and a joiner on
        // the first one's gaze from frame 4 to frame 8, on the exact 30 fps
        // schedule, then half a second with nothing routed, in which the
        // display slots are most of what is due.
        let run = |every_ms: bool| {
            let trace = Arc::new(EventTrace::new(1 << 16));
            let mut router = Router::builder(cams.clone())
                .trace(trace.clone())
                .build()
                .unwrap();
            let add = |router: &mut Router, name: &str, seed: u64, standin: bool| {
                let mut cfg = SubscriberConfig::new(name);
                cfg.session.link = LinkConfig {
                    random_loss: 0.05,
                    seed,
                    ..LinkConfig::default()
                };
                cfg.standin = standin;
                let link = BandwidthTrace::constant(4.0, 10.0);
                router.add_subscriber(cfg, link).unwrap()
            };
            let mut subs = vec![
                (add(&mut router, "a", 1, true), 0.0),
                (add(&mut router, "b", 2, true), std::f32::consts::PI),
                (add(&mut router, "c", 3, false), 0.03),
            ];
            let (mut streams, mut outcomes) = (Vec::new(), BTreeMap::new());
            let mut now = 0;
            for f in 0..clip.len() as u64 {
                if f == 4 {
                    subs.push((add(&mut router, "joiner", 4, true), 0.02));
                }
                if f == 8 {
                    let (joiner, _) = subs.pop().unwrap();
                    outcomes.insert(joiner, outcome(router.subscriber(joiner).unwrap()));
                    router.remove_subscriber(joiner).unwrap();
                }
                for &(id, yaw) in &subs {
                    router.observe_pose(id, &looking(yaw)).unwrap();
                }
                let out = router.route_frame(now, &clip[f as usize]);
                for c in out.clusters {
                    streams.push((out.seq, c.key, c.members, c.color.data, c.depth.data));
                }
                now = advance(&mut router, now, due(f + 1), every_ms);
            }
            now = advance(&mut router, now, due(clip.len() as u64 + 15), every_ms);
            for &(id, _) in &subs {
                outcomes.insert(id, outcome(router.subscriber(id).unwrap()));
            }
            let ticks = router.registry().snapshot().counter("sfu.session_ticks");
            let mut slots: Vec<_> = trace
                .snapshot()
                .into_iter()
                .filter(|e| e.kind == kind::DISPLAY || e.kind == kind::STALL)
                .map(|e| (e.ts_us, e.party, e.frame_seq, e.arg))
                .collect();
            slots.sort_unstable();
            (streams, outcomes, ticks, slots, now)
        };
        let (streams, outcomes, ticks, slots, end) = run(false);
        // The links were lossy, the stand-ins of the whole run displayed,
        // and the joiner left before its first slot.
        assert!(outcomes.values().any(|(session, _)| session.nacks_sent > 0));
        let stats = |raw| outcomes[&SubscriberId(raw)].1;
        assert!(stats(0).slots_shown > 0 && stats(1).slots_shown > 0);
        assert_eq!(
            stats(2).slots_shown + stats(2).slots_stalled(),
            0,
            "no stand-in"
        );
        assert!(stats(3).frames_forwarded > 0 && stats(3).slots_shown == 0);
        assert_eq!(end, due(35).div_ceil(TICK_US) * TICK_US);
        assert!(
            (streams, outcomes, ticks, slots, end) == run(true),
            "run_until diverged from the 1 ms tick loop"
        );
    }

    #[test]
    fn a_joiner_at_frame_k_starts_its_display_slots_k_frames_later() {
        use livo_core::stage::due;
        let cams = tiny_rig();
        let views = views_at(&cams, 0.0, 0);
        let mut router = Router::builder(cams).build().unwrap();
        let first = add(&mut router, "first");
        let mut joiner = None;
        let (k, frames) = (6, 30);
        let mut now = 0;
        for f in 0..frames {
            if f == k {
                joiner = Some(add(&mut router, "joiner"));
            }
            let ids: Vec<SubscriberId> = router.subscribers.keys().copied().collect();
            for id in ids {
                router.observe_pose(id, &looking(0.0)).unwrap();
            }
            router.route_frame(now, &views);
            now = router.run_until(now, due(f + 1));
        }
        // due(6) is on the 1 ms grid, so the joiner's slots are the first
        // subscriber's, six frame intervals later.
        let slots = |id| {
            let stats = router.subscriber(id).unwrap().stats();
            stats.slots_shown + stats.slots_stalled()
        };
        let (a, b) = (slots(first), slots(joiner.unwrap()));
        assert!(b > 0, "the joiner decided no slot");
        assert_eq!(a - b, k);
    }

    /// A cluster measures its encode's RMSE only on frames where some
    /// member's splitter samples it (every third frame from the member's
    /// join), and every member's split walks as it did when every frame
    /// was measured.
    #[test]
    fn rmse_is_measured_only_on_frames_a_member_samples() {
        let cams = tiny_rig();
        let mut router = Router::builder(cams.clone()).build().unwrap();
        // Starved downlinks, so the stage cluster's errors leave the
        // splitters' dead-band.
        let add = |router: &mut Router, name: &str| {
            let mut cfg = SubscriberConfig::new(name);
            cfg.session.initial_estimate_bps = 150e3;
            let link = BandwidthTrace::constant(0.3, 10.0);
            router.add_subscriber(cfg, link).unwrap()
        };
        // a and b share the stage cluster, b from frame 1; c, alone on the
        // far side from frame 2, has its own.
        let a = add(&mut router, "a");
        let (mut b, mut c) = (None, None);
        let mut measured: Vec<(u32, u64, bool)> = Vec::new();
        let mut splits: Vec<Vec<i64>> = Vec::new();
        let mut now = 0;
        for f in 0..12u32 {
            if f == 1 {
                b = Some(add(&mut router, "b"));
            }
            if f == 2 {
                c = Some(add(&mut router, "c"));
            }
            let gazes = [(Some(a), 0.0), (b, 0.03), (c, std::f32::consts::PI)];
            for (id, yaw) in gazes {
                if let Some(id) = id {
                    router.observe_pose(id, &looking(yaw)).unwrap();
                }
            }
            let out = router.route_frame(now, &views_at(&cams, f as f32 / 30.0, f));
            for cl in &out.clusters {
                measured.push((f, cl.key, cl.rmse.is_some()));
            }
            // Splits in thousandths, in join order.
            splits.push(
                router
                    .subscribers
                    .values()
                    .map(|s| (s.splitter.split() * 1e3).round() as i64)
                    .collect(),
            );
            now = router.run_until(now, livo_core::stage::due(f as u64 + 1));
        }
        let sampled = |f: u32, key: u64| match key {
            0 => f % 3 != 2,
            _ => f % 3 == 2,
        };
        assert_eq!(
            measured,
            measured
                .iter()
                .map(|&(f, key, _)| (f, key, sampled(f, key)))
                .collect::<Vec<_>>()
        );
        // The splits, in thousandths, of a router that measured every
        // cluster on every frame.
        let every_frame: [&[i64]; 12] = [
            &[795],
            &[795, 805],
            &[795, 805, 800],
            &[790, 805, 800],
            &[790, 800, 800],
            &[790, 800, 800],
            &[785, 800, 800],
            &[785, 795, 800],
            &[785, 795, 800],
            &[780, 795, 800],
            &[780, 790, 800],
            &[780, 790, 800],
        ];
        assert_eq!(splits, every_frame);
    }
}
