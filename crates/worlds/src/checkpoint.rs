//! Checkpoint/resume for the population engine.
//!
//! A checkpoint is a complete, self-describing byte snapshot of an
//! [`Engine`]: spec, topology, seed, RNG state, clock,
//! sequence counter, streaming stats, in-progress ingress batches, and
//! every pending timer-wheel entry. Restoring and running to the end
//! must produce a report byte-identical to a straight-through run — CI
//! diffs exactly that.
//!
//! The format is hand-rolled little-endian ("DCPW" magic + version):
//! the vendored `serde`/`serde_json` stand-ins are serialize-only, so
//! there is no parser to lean on, and an explicit codec keeps the
//! snapshot stable across compiler and library versions anyway.

use std::collections::BTreeMap;

use crate::engine::{Engine, PopEvent, Stats, Topology};
use crate::rng::SplitMix64;
use crate::spec::WorldSpec;

const MAGIC: u32 = u32::from_le_bytes(*b"DCPW");
const VERSION: u32 = 1;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("checkpoint truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        // A length can never exceed the bytes that remain — reject early
        // so corrupt lengths fail cleanly instead of attempting huge
        // allocations.
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(format!(
                "checkpoint length field {n} exceeds remaining bytes"
            ));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| e.to_string())
    }
    fn vec_u64(&mut self) -> Result<Vec<u64>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn vec_u32(&mut self) -> Result<Vec<u32>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.u32()).collect()
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "checkpoint has {} trailing bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn write_event(w: &mut Writer, ev: &PopEvent) {
    match ev {
        PopEvent::Arrival { user } => {
            w.u8(0);
            w.u32(*user);
        }
        PopEvent::Up {
            user,
            name,
            size,
            hop,
            sent_us,
        } => {
            w.u8(1);
            w.u32(*user);
            w.u32(*name);
            w.u32(*size);
            w.u8(*hop);
            w.u64(*sent_us);
        }
        PopEvent::Down {
            user,
            size,
            hop,
            sent_us,
        } => {
            w.u8(2);
            w.u32(*user);
            w.u32(*size);
            w.u8(*hop);
            w.u64(*sent_us);
        }
        PopEvent::Flush { ingress } => {
            w.u8(3);
            w.u32(*ingress);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<PopEvent, String> {
    Ok(match r.u8()? {
        0 => PopEvent::Arrival { user: r.u32()? },
        1 => PopEvent::Up {
            user: r.u32()?,
            name: r.u32()?,
            size: r.u32()?,
            hop: r.u8()?,
            sent_us: r.u64()?,
        },
        2 => PopEvent::Down {
            user: r.u32()?,
            size: r.u32()?,
            hop: r.u8()?,
            sent_us: r.u64()?,
        },
        3 => PopEvent::Flush { ingress: r.u32()? },
        t => return Err(format!("unknown event tag {t}")),
    })
}

impl Engine {
    /// Serialize the complete engine state. Safe at any event boundary
    /// (between [`run_until_events`](Engine::run_until_events) calls).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u32(VERSION);

        // Spec — the workload tables are rebuilt from this on restore.
        let s = &self.spec;
        w.u64(s.users);
        w.u64(s.names);
        w.f64(s.name_exponent);
        w.f64(s.user_exponent);
        w.f64(s.rate_hz);
        w.f64(s.diurnal_amplitude);
        w.u64(s.diurnal_period_us);
        w.u64(s.duration_us);

        // Topology.
        let t = &self.topo;
        w.str(&t.scenario);
        w.u32(t.hops);
        w.u32(t.ingresses);
        w.u64(t.batch_window_us);
        w.u64(t.pad_to);
        w.u32(t.resolvers);
        w.bool(t.stripe_by_name);
        w.u64(t.link_us);
        w.u64(t.query_bytes);
        w.u64(t.resp_bytes);

        // Dynamic state.
        w.u64(self.seed);
        w.u64(self.rng.state());
        w.u64(self.now_us);
        w.u64(self.next_seq);
        w.u64(self.events);

        // Streaming stats.
        let st = &self.stats;
        w.u64(st.queries_sent);
        w.u64(st.queries_answered);
        w.u64(st.messages);
        w.u64(st.batches);
        w.u64(st.batch_users_sum);
        w.vec_u64(&st.anon_hist);
        w.u64(st.linkage_attempts);
        w.u64(st.linkage_linked);
        w.vec_u64(&st.latency_hist);
        w.u64(st.latency_sum_us);
        w.vec_u64(&st.resolver_queries);
        w.u64(st.resolver_seen.len() as u64);
        for bits in &st.resolver_seen {
            w.vec_u64(bits);
        }
        w.vec_u32(&st.per_user_resolver);
        w.vec_u32(&st.per_user_queries);
        w.u64(st.inflight_sizes.len() as u64);
        for (&size, &count) in &st.inflight_sizes {
            w.u32(size);
            w.u32(count);
        }

        // In-progress ingress batches.
        w.u64(self.batches.len() as u64);
        for batch in &self.batches {
            w.u64(batch.len() as u64);
            for &(user, name, size, sent_us) in batch {
                w.u32(user);
                w.u32(name);
                w.u32(size);
                w.u64(sent_us);
            }
        }

        // Pending timer-wheel entries, in canonical (time, seq) order.
        let snap = self.wheel.snapshot();
        w.u64(snap.len() as u64);
        for (time, seq, ev) in &snap {
            w.u64(*time);
            w.u64(*seq);
            write_event(&mut w, ev);
        }

        w.buf
    }

    /// Rebuild an engine from [`checkpoint`](Engine::checkpoint) bytes.
    /// The restored engine continues the run bit-for-bit: its final
    /// report is byte-identical to a never-paused run's.
    pub fn restore(bytes: &[u8]) -> Result<Engine, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err("not a dcp-worlds checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }

        let spec = WorldSpec {
            users: r.u64()?,
            names: r.u64()?,
            name_exponent: r.f64()?,
            user_exponent: r.f64()?,
            rate_hz: r.f64()?,
            diurnal_amplitude: r.f64()?,
            diurnal_period_us: r.u64()?,
            duration_us: r.u64()?,
        };
        let topo = Topology {
            scenario: r.str()?,
            hops: r.u32()?,
            ingresses: r.u32()?,
            batch_window_us: r.u64()?,
            pad_to: r.u64()?,
            resolvers: r.u32()?,
            stripe_by_name: r.bool()?,
            link_us: r.u64()?,
            query_bytes: r.u64()?,
            resp_bytes: r.u64()?,
        };

        let seed = r.u64()?;
        // Workload tables are a pure function of the spec; rebuild them
        // instead of storing megabytes of CDF.
        let mut e = Engine::empty(&spec, &topo, seed)?;
        e.rng = SplitMix64::from_state(r.u64()?);
        e.now_us = r.u64()?;
        e.next_seq = r.u64()?;
        e.events = r.u64()?;

        let mut st = Stats {
            queries_sent: r.u64()?,
            queries_answered: r.u64()?,
            messages: r.u64()?,
            batches: r.u64()?,
            batch_users_sum: r.u64()?,
            anon_hist: r.vec_u64()?,
            linkage_attempts: r.u64()?,
            linkage_linked: r.u64()?,
            latency_hist: r.vec_u64()?,
            latency_sum_us: r.u64()?,
            resolver_queries: r.vec_u64()?,
            ..Stats::default()
        };
        let n_res = r.len()?;
        st.resolver_seen = (0..n_res).map(|_| r.vec_u64()).collect::<Result<_, _>>()?;
        st.per_user_resolver = r.vec_u32()?;
        st.per_user_queries = r.vec_u32()?;
        let n_sizes = r.len()?;
        let mut inflight = BTreeMap::new();
        for _ in 0..n_sizes {
            let size = r.u32()?;
            let count = r.u32()?;
            inflight.insert(size, count);
        }
        st.inflight_sizes = inflight;
        if st.per_user_queries.len() as u64 != spec.users
            || st.resolver_queries.len() != topo.resolvers as usize
        {
            return Err("checkpoint stats do not match spec dimensions".into());
        }
        e.stats = st;

        let n_batches = r.len()?;
        if n_batches != e.batches.len() {
            return Err("checkpoint batch count does not match topology".into());
        }
        for b in 0..n_batches {
            let n = r.len()?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push((r.u32()?, r.u32()?, r.u32()?, r.u64()?));
            }
            e.batches[b] = batch;
        }

        let n_events = r.len()?;
        for _ in 0..n_events {
            let time = r.u64()?;
            let seq = r.u64()?;
            let ev = read_event(&mut r)?;
            // Re-inserting into a fresh wheel (cursor 0) preserves the
            // (time, seq) total order: the engine never schedules behind
            // its clock, so every pending entry sits at or after now.
            e.wheel.push(time, seq, ev);
        }
        r.done()?;
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorldSpec;

    fn spec() -> WorldSpec {
        WorldSpec::smoke()
            .users(80)
            .names(40)
            .duration_us(3_000_000)
    }

    fn straight_report(topo: &Topology, seed: u64) -> crate::PopReport {
        let mut e = Engine::new(&spec(), topo, seed).unwrap();
        e.run_to_end();
        e.report()
    }

    #[test]
    fn resume_matches_straight_run_exactly() {
        for name in ["odoh", "mixnet", "direct"] {
            let topo = Topology::by_name(name).unwrap();
            let straight = straight_report(&topo, 17);

            let mut e = Engine::new(&spec(), &topo, 17).unwrap();
            e.run_until_events(e.spec.users / 2); // pause mid-world
            let bytes = e.checkpoint();
            drop(e);

            let mut resumed = Engine::restore(&bytes).unwrap();
            resumed.run_to_end();
            assert_eq!(resumed.report(), straight, "{name} resume must be exact");
        }
    }

    #[test]
    fn chained_checkpoints_stay_exact() {
        let topo = Topology::odoh();
        let straight = straight_report(&topo, 5);

        let mut e = Engine::new(&spec(), &topo, 5).unwrap();
        let mut budget = 300u64;
        loop {
            let done = e.run_until_events(budget);
            // Round-trip through bytes at every pause.
            e = Engine::restore(&e.checkpoint()).unwrap();
            if done {
                break;
            }
            budget += 300;
        }
        assert_eq!(e.report(), straight);
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        let topo = Topology::mpr();
        let snap = |seed| {
            let mut e = Engine::new(&spec(), &topo, seed).unwrap();
            e.run_until_events(1000);
            e.checkpoint()
        };
        assert_eq!(snap(9), snap(9));
        assert_ne!(snap(9), snap(10));
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Engine::restore(b"").is_err());
        assert!(Engine::restore(b"nope").is_err());
        assert!(Engine::restore(&[0u8; 64]).is_err());
        let mut e = Engine::new(&spec(), &Topology::odoh(), 1).unwrap();
        e.run_until_events(50);
        let mut bytes = e.checkpoint();
        bytes.truncate(bytes.len() - 3);
        assert!(Engine::restore(&bytes).is_err(), "truncation detected");
        let mut bytes = e.checkpoint();
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(Engine::restore(&bytes).is_err(), "trailing bytes detected");
        let mut bytes = e.checkpoint();
        bytes[5] ^= 0xFF; // version field
        assert!(Engine::restore(&bytes).is_err(), "bad version detected");
    }
}
