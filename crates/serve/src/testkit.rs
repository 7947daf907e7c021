//! The one harness for the round machine and its durability: a journal
//! in a [`MemStore`], a [`Core`] stepped on one thread, and replies that
//! come back on reply channels. A pipelined client queues every command
//! before the shell's drain runs, so rounds are the largest the cap and
//! the barriers allow; a lockstep client waits for each reply before it
//! sends the next command, so it steps the core one command per round.
//! The harness's clock is virtual: round `k` of a run carries the wall
//! time `k × TICK`.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use lumos_core::SystemSpec;
use lumos_predict::PredictorConfig;
use lumos_sim::{Policy, TenantTable};

use super::{release, serve_rounds, Envelope, ServeConfig};
use crate::core::Core;
use crate::journal::{FsyncPolicy, Journal, JournalConfig};
use crate::protocol::{Request, SubmitSpec};
use crate::recovery::{recover_in, Recovered, Replica};
use crate::store::MemStore;

/// The wall time between one round of a run and the next.
pub(crate) const TICK: Duration = Duration::from_millis(10);

/// An 8-unit machine with tenants (one capped at 6 outstanding
/// units), a fair-share policy and a walltime predictor, so the
/// shared submit path exercises tenant resolution, quota refusal and
/// predict/observe on every route.
pub(crate) fn config(snapshot_every: u64) -> ServeConfig {
    let mut system = SystemSpec::theta();
    system.name = "rounds-test".into();
    system.total_nodes = 8;
    system.units_per_node = 1;
    system.total_units = 8;
    let mut config = ServeConfig::new(system);
    config.sim.policy = Policy::MaxMinFair;
    config.predictor = Some(PredictorConfig::Last2 { margin: 1.5 });
    config.tenants = Some(TenantTable::parse("capped 1 6\nfree 2\n").expect("tenant table"));
    config.journal = Some(never_synced(snapshot_every));
    config
}

/// A journal that never syncs; its directory is whatever store it is
/// recovered from.
pub(crate) fn never_synced(snapshot_every: u64) -> JournalConfig {
    let mut journal = JournalConfig::new(PathBuf::from("in-memory"));
    journal.fsync = FsyncPolicy::Never;
    journal.snapshot_every = snapshot_every;
    journal
}

pub(crate) fn submit(
    id: u64,
    procs: u64,
    runtime: i64,
    submit: Option<i64>,
    tenant: &str,
) -> Request {
    Request::Submit {
        job: SubmitSpec {
            id,
            procs,
            runtime,
            walltime: Some(runtime + 50),
            user: Some((id % 3) as u32),
            submit,
            virtual_cluster: None,
            tenant: Some(tenant.into()),
        },
    }
}

/// Every kind of command a primary's round can hold: submissions that
/// start at once, queue, are zero-length or future-dated; a cancel,
/// reads, advances, and `Promote` — a barrier in the middle of what
/// would otherwise be one round; and a duplicate, an over-quota and
/// an unknown-tenant submission. Refusals are never journaled, and
/// what counts them is the scheduler, not the replicated state: a
/// replay or a follower, which never sees them, still writes the
/// primary's snapshots.
pub(crate) fn mixed_stream() -> Vec<Request> {
    let mut stream = vec![
        submit(1, 4, 100, None, "capped"),
        submit(2, 2, 300, None, "free"),
        submit(3, 4, 200, None, "free"),    // queues behind 1 and 2
        submit(4, 1, 0, None, "free"),      // zero-length
        submit(5, 2, 50, Some(40), "free"), // future-dated
        submit(1, 1, 10, None, "free"),     // duplicate id
        submit(6, 4, 10, None, "capped"),   // 4 + 4 > quota 6
        submit(7, 1, 10, None, "nobody"),   // unknown tenant
        Request::Query { id: 3 },
        submit(8, 2, 80, None, "capped"),
        Request::Cancel { id: 3 },
        Request::Cancel { id: 99 },
        Request::Stats,
        Request::Promote,
        submit(9, 3, 60, None, "free"),
        Request::Advance { to: 45 },
        Request::Query { id: 5 },
        Request::Snapshot,
    ];
    for i in 0..20 {
        stream.push(submit(100 + i, 1 + i % 3, 20 + i as i64 * 7, None, "free"));
        if i % 6 == 5 {
            stream.push(Request::Advance {
                to: 45 + i as i64 * 10,
            });
        }
    }
    stream.extend(refusals_between_submissions());
    stream.push(Request::Stats);
    stream
}

/// On a drained machine, one run of submissions with no read between
/// them: three that start at once and one that queues, each answered
/// from its row after its pass, around a zero-length job and five
/// refusals — two of which break a second rule as well.
pub(crate) fn refusals_between_submissions() -> Vec<Request> {
    vec![
        Request::Advance { to: 5_000 },
        submit(200, 2, 30, None, "free"),
        submit(201, 1, 0, None, "free"), // zero-length: done in its own pass
        submit(202, 2, 30, None, "free"),
        submit(200, 1, 10, Some(10), "free"), // duplicate, and past-dated
        submit(202, 99, 10, None, "free"),    // duplicate, and oversized
        submit(203, 99, 10, None, "capped"),  // oversized, and over quota
        submit(204, 7, 10, None, "capped"),   // 7 > quota 6
        submit(205, 3, 30, None, "capped"),   // 2 + 2 + 3 of 8 units
        submit(206, 4, 30, None, "free"),     // queues behind them
    ]
}

/// How a test client feeds the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Client {
    /// Queues the whole stream before the scheduler runs.
    Pipelined,
    /// Sends each command once the one before it is answered.
    Lockstep,
    /// Queues the whole stream and is gone before the first reply.
    Vanished,
}

/// What one run of the round machine left behind.
pub(crate) struct Served {
    /// Reply lines in release order, each with whether it carried
    /// [`Reply::done`].
    pub replies: Vec<(String, bool)>,
    /// The rotation snapshot the replica would write at the end of
    /// the run: an increment, once the run has rotated.
    pub snapshot: String,
    /// [`full_state`] at the end of the run.
    pub state: String,
    /// Whether `done`'s receiver was already disconnected when the
    /// scheduler returned.
    pub done_dropped: bool,
    /// What the scheduler owned, to serve another stream on.
    pub parts: (Replica, Journal),
}

/// The complete state of a replica, wherever its saved mark is: what
/// two replicas that rotated at different boundaries (or not at all)
/// are compared by.
pub(crate) fn full_state(replica: &Replica) -> String {
    [
        serde_json::to_string(&replica.session.save_state()),
        serde_json::to_string(&replica.metrics),
        serde_json::to_string(&replica.predictor),
    ]
    .map(|part| part.expect("state serializes"))
    .join("\n")
}

/// Feeds `stream` to a core over `replica` and `journal` the way
/// `client` does, until the stream ends (or a round stops the
/// scheduler), and collects the replies.
pub(crate) fn serve_on(
    config: &ServeConfig,
    (replica, journal): (Replica, Journal),
    stream: Vec<Request>,
    client: Client,
) -> Served {
    let mut core = Core::new(config, replica, Some(journal), None);
    let (done, flushed) = mpsc::channel();
    let mut replies = Vec::new();
    if client == Client::Lockstep {
        let mut done = Some(done);
        for (k, req) in (0..).zip(stream) {
            let (reply, answer) = mpsc::channel();
            let round = core.round(TICK * k, 0, [req]);
            let stop = round.stop;
            release(round, [reply], &mut done);
            replies.extend(answer.try_recv());
            if stop {
                break;
            }
        }
    } else {
        let (tx, rx) = mpsc::sync_channel(stream.len().max(1));
        let (reply, answers) = mpsc::channel();
        for req in stream {
            let reply = reply.clone();
            tx.send(Envelope { req, reply }).expect("queue a command");
        }
        drop((tx, reply));
        let answers = (client == Client::Pipelined).then_some(answers);
        let mut rounds = 0..;
        let elapsed = || TICK * rounds.next().expect("rounds");
        serve_rounds(&mut core, &rx, &AtomicU64::new(0), None, done, elapsed);
        replies.extend(answers.into_iter().flatten());
    }
    let done_dropped = flushed.try_recv() == Err(TryRecvError::Disconnected);
    let (replica, journal) = core.into_parts();
    Served {
        replies: replies
            .into_iter()
            .map(|r| (r.response.to_line(), r.done.is_some()))
            .collect(),
        snapshot: replica.snapshot_json(),
        state: full_state(&replica),
        done_dropped,
        parts: (replica, journal.expect("served with a journal")),
    }
}

/// Recovers `config`'s journal from `store`.
pub(crate) fn recover(store: &MemStore, config: &ServeConfig) -> Recovered {
    let journal = config.journal.as_ref().expect("tests journal");
    recover_in(Arc::new(store.clone()), config, journal).expect("recover")
}

pub(crate) fn serve(
    config: &ServeConfig,
    store: &MemStore,
    stream: Vec<Request>,
    client: Client,
) -> Served {
    serve_on(config, recover(store, config).into_parts(), stream, client)
}
