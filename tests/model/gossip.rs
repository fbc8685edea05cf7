//! The gossip exchange as it was before its bodies became words, over a
//! `BTreeMap<Peer, _>` view: `u64` clocks, a SYN of 24-byte digests, and
//! ACK/ACK2 bodies as `Vec`s of `(Peer, delta)` pairs whose full-state
//! deltas each carry their own payload — a flat copy of every entry, made
//! when the body is built. Beside it, the widening of the crate's narrow
//! entries and states into these types, which is how the differentials
//! compare the two entry by entry.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use scalecheck_gossip::{ApplyOutcome, Delta, Digest, EndpointState, Peer};

/// A heartbeat with `u64` clocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WideHeartbeat {
    pub generation: u64,
    pub version: u64,
}

/// An endpoint state with `u64` clocks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WideState<A> {
    pub heartbeat: WideHeartbeat,
    pub app_version: u64,
    pub app: Arc<A>,
}

impl<A: Clone> WideState<A> {
    pub fn new(heartbeat: WideHeartbeat, app_version: u64, app: A) -> Self {
        WideState {
            heartbeat,
            app_version,
            app: Arc::new(app),
        }
    }

    pub fn max_version(&self) -> u64 {
        self.heartbeat.version.max(self.app_version)
    }

    pub fn newer_than(&self, generation: u64, max_version: u64) -> bool {
        self.heartbeat.generation > generation
            || (self.heartbeat.generation == generation && self.max_version() > max_version)
    }

    pub fn delta_against(&self, generation: u64, max_version: u64) -> WideDelta<A> {
        if self.heartbeat.generation == generation && self.app_version <= max_version {
            WideDelta::Heartbeat(self.heartbeat)
        } else {
            WideDelta::Full(self.clone())
        }
    }
}

/// A SYN digest or ACK request with `u64` clocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WideDigest {
    pub peer: Peer,
    pub generation: u64,
    pub max_version: u64,
}

/// One ACK or ACK2 entry: the full state, payload included, or the
/// heartbeat alone.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WideDelta<A> {
    Full(WideState<A>),
    Heartbeat(WideHeartbeat),
}

#[derive(Clone)]
pub struct WideSyn {
    pub digests: Vec<WideDigest>,
}

#[derive(Clone)]
pub struct WideAck<A> {
    pub deltas: Vec<(Peer, WideDelta<A>)>,
    pub requests: Vec<WideDigest>,
}

#[derive(Clone)]
pub struct WideAck2<A> {
    pub deltas: Vec<(Peer, WideDelta<A>)>,
}

/// A narrow endpoint state, widened.
pub fn widen_state<A>(st: &EndpointState<A>) -> WideState<A> {
    WideState {
        heartbeat: WideHeartbeat {
            generation: st.heartbeat.generation.into(),
            version: st.heartbeat.version.into(),
        },
        app_version: st.app_version.into(),
        app: Arc::clone(&st.app),
    }
}

/// Narrow digests, widened.
pub fn widen_digests(digests: &[Digest]) -> Vec<WideDigest> {
    digests
        .iter()
        .map(|d| WideDigest {
            peer: d.peer,
            generation: d.generation.into(),
            max_version: d.max_version.into(),
        })
        .collect()
}

/// Narrow deltas, widened, in order.
pub fn widen_deltas<A>(deltas: &[(Peer, Delta<A>)]) -> Vec<(Peer, WideDelta<A>)> {
    deltas
        .iter()
        .map(|(peer, delta)| {
            let delta = match delta {
                Delta::Heartbeat(hb) => WideDelta::Heartbeat(WideHeartbeat {
                    generation: hb.generation.into(),
                    version: hb.version.into(),
                }),
                Delta::Full(st) => WideDelta::Full(widen_state(st)),
            };
            (*peer, delta)
        })
        .collect()
}

/// The gossiper before its bodies became records, over a tree view.
pub struct TreeGossiper<A> {
    me: Peer,
    version_clock: u64,
    map: BTreeMap<Peer, WideState<A>>,
}

impl<A: Clone + PartialEq> TreeGossiper<A> {
    pub fn new(me: Peer, generation: u64, app: A) -> Self {
        let hb = WideHeartbeat {
            generation,
            version: 0,
        };
        TreeGossiper {
            me,
            version_clock: 0,
            map: BTreeMap::from([(me, WideState::new(hb, 0, app))]),
        }
    }

    pub fn endpoint(&self, peer: Peer) -> Option<&WideState<A>> {
        self.map.get(&peer)
    }

    pub fn known(&self) -> Vec<Peer> {
        self.map.keys().copied().collect()
    }

    pub fn seed_peer(&mut self, peer: Peer, state: WideState<A>) {
        self.map.entry(peer).or_insert(state);
    }

    fn own_mut(&mut self) -> &mut WideState<A> {
        self.map.get_mut(&self.me).expect("own state")
    }

    pub fn beat(&mut self) {
        self.version_clock += 1;
        self.own_mut().heartbeat.version = self.version_clock;
    }

    pub fn update_app(&mut self, app: A) {
        self.version_clock += 1;
        let version = self.version_clock;
        let st = self.own_mut();
        st.app = Arc::new(app);
        st.app_version = version;
    }

    pub fn restart(&mut self) {
        self.version_clock = 0;
        let st = self.own_mut();
        st.heartbeat.generation += 1;
        st.heartbeat.version = 0;
        st.app_version = 0;
    }

    pub fn make_syn(&self) -> WideSyn {
        WideSyn {
            digests: self
                .map
                .iter()
                .map(|(&peer, st)| WideDigest {
                    peer,
                    generation: st.heartbeat.generation,
                    max_version: st.max_version(),
                })
                .collect(),
        }
    }

    pub fn handle_syn(&self, syn: &WideSyn) -> WideAck<A> {
        let mut deltas = Vec::new();
        let mut requests = Vec::new();
        for d in &syn.digests {
            match self.map.get(&d.peer) {
                Some(local) if local.newer_than(d.generation, d.max_version) => {
                    deltas.push((d.peer, local.delta_against(d.generation, d.max_version)));
                }
                Some(local)
                    if (local.heartbeat.generation, local.max_version())
                        < (d.generation, d.max_version) =>
                {
                    requests.push(WideDigest {
                        peer: d.peer,
                        generation: local.heartbeat.generation,
                        max_version: local.max_version(),
                    });
                }
                Some(_) => {}
                None => requests.push(WideDigest {
                    peer: d.peer,
                    generation: 0,
                    max_version: 0,
                }),
            }
        }
        // Peers only we know about, in ascending order.
        let claimed: BTreeSet<Peer> = syn.digests.iter().map(|d| d.peer).collect();
        for (&peer, st) in &self.map {
            if !claimed.contains(&peer) {
                deltas.push((peer, WideDelta::Full(st.clone())));
            }
        }
        WideAck { deltas, requests }
    }

    pub fn handle_ack(&mut self, ack: &WideAck<A>) -> (ApplyOutcome, WideAck2<A>) {
        let outcome = self.apply(&ack.deltas);
        let mut deltas = Vec::new();
        for req in &ack.requests {
            if let Some(local) = self.map.get(&req.peer) {
                if local.newer_than(req.generation, req.max_version) {
                    deltas.push((
                        req.peer,
                        local.delta_against(req.generation, req.max_version),
                    ));
                }
            }
        }
        (outcome, WideAck2 { deltas })
    }

    pub fn handle_ack2(&mut self, ack2: &WideAck2<A>) -> ApplyOutcome {
        self.apply(&ack2.deltas)
    }

    pub fn apply(&mut self, deltas: &[(Peer, WideDelta<A>)]) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        for (peer, delta) in deltas {
            if *peer == self.me {
                continue;
            }
            match delta {
                WideDelta::Full(remote) => match self.map.get_mut(peer) {
                    Some(local) => {
                        let local_gen = local.heartbeat.generation;
                        if remote.newer_than(local_gen, local.max_version()) {
                            if remote.heartbeat.generation > local_gen
                                || remote.heartbeat.version > local.heartbeat.version
                            {
                                out.heartbeat_advanced.push(*peer);
                            }
                            if remote.heartbeat.generation > local_gen
                                || remote.app_version > local.app_version
                            {
                                out.app_advanced.push(*peer);
                            }
                            *local = remote.clone();
                        }
                    }
                    None => {
                        out.heartbeat_advanced.push(*peer);
                        out.app_advanced.push(*peer);
                        self.map.insert(*peer, remote.clone());
                    }
                },
                WideDelta::Heartbeat(hb) => {
                    if let Some(local) = self.map.get_mut(peer) {
                        if hb.generation == local.heartbeat.generation
                            && hb.version > local.max_version()
                        {
                            local.heartbeat.version = hb.version;
                            out.heartbeat_advanced.push(*peer);
                        }
                    }
                }
            }
        }
        out
    }
}
