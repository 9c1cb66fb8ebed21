//! Stress test for the bounded serving front-end: several producer
//! threads hammer a 2-worker engine with a queue capacity of 4, mixing
//! blocking `submit` and non-blocking `try_submit` over all three
//! request types (`Job`, `Submission`, `PipelineJob`), expired
//! deadlines, and immediate cancellations. The contract under test is
//! the outcome partition — every submission ends in exactly one of
//! {result, `QueueFull`, `DeadlineExceeded`, `Cancelled`, shutdown
//! error} — and that the process never deadlocks: every wait below is
//! bounded, and the snapshot's balance identity holds at quiescence.
//!
//! Runs under both `GPES_TEST_DISPATCH=serial` and `=auto` in CI (the
//! engine honours the env override for its workers' dispatch).

use gpes::core::serve::JobInput;
use gpes::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn gain_spec(n: usize) -> Arc<KernelSpec> {
    Arc::new(
        KernelSpec::new("gain")
            .input("x")
            .uniform_f32("gain", 3.0)
            .output(n)
            .body("return fetch_x(idx) * gain;"),
    )
}

fn sum_pipeline(n: usize) -> Arc<PipelineSpec> {
    let step = Arc::new(
        KernelSpec::new("inc")
            .input("x")
            .output(n)
            .body("return fetch_x(idx) + 1.0;"),
    );
    Arc::new(
        PipelineSpec::builder("inc4")
            .source_len("x", n)
            .pass(PassSpec::new(&step).read("x", "x").write_len("x", n))
            .iterations(4)
            .build()
            .expect("spec"),
    )
}

/// Per-producer tally of how each submission resolved. `other` must stay
/// zero: it would mean an outcome outside the documented partition.
#[derive(Default, Debug)]
struct Outcomes {
    submitted: u64,
    ok: u64,
    queue_full: u64,
    deadline: u64,
    cancelled: u64,
    shutdown: u64,
    other: u64,
}

impl Outcomes {
    fn absorb_error(&mut self, e: &ComputeError) {
        match e {
            ComputeError::QueueFull { .. } => self.queue_full += 1,
            ComputeError::DeadlineExceeded { .. } => self.deadline += 1,
            ComputeError::Cancelled => self.cancelled += 1,
            ComputeError::EngineShutdown | ComputeError::EngineInternal { .. } => {
                self.shutdown += 1
            }
            _ => self.other += 1,
        }
    }

    fn total(&self) -> u64 {
        self.ok + self.queue_full + self.deadline + self.cancelled + self.shutdown + self.other
    }
}

/// Bounded wait: a handle that does not resolve within the cap is a
/// deadlock, which is exactly what this test exists to catch.
fn bounded_wait<T>(handle: &gpes::core::JobHandle<T>) -> Result<T, ComputeError> {
    handle
        .wait_timeout(Duration::from_secs(120))
        .expect("a submitted job must resolve: wait() hung")
}

#[test]
fn saturating_mixed_load_partitions_every_outcome_and_never_deadlocks() {
    const PRODUCERS: usize = 3;
    const PER_PRODUCER: usize = 40;
    let n = 64;
    let engine = Engine::builder()
        .workers(2)
        .queue_capacity(4)
        .submit_timeout(Duration::from_millis(50))
        .build()
        .expect("engine");
    let gain = gain_spec(n);
    let pipe = sum_pipeline(n);
    let input: Arc<Vec<f32>> = Arc::new((0..n).map(|i| i as f32).collect());
    let expected_gain: Vec<f32> = input.iter().map(|v| v * 3.0).collect();
    let expected_pipe: Vec<f32> = input.iter().map(|v| v + 4.0).collect();

    let totals: Vec<Outcomes> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for p in 0..PRODUCERS {
            let engine = &engine;
            let gain = &gain;
            let pipe = &pipe;
            let input = &input;
            let expected_gain = &expected_gain;
            let expected_pipe = &expected_pipe;
            joins.push(scope.spawn(move || {
                let mut tally = Outcomes::default();
                for i in 0..PER_PRODUCER {
                    tally.submitted += 1;
                    match (p + i) % 5 {
                        // Blocking submit with a short admission timeout:
                        // lands or resolves QueueFull, never blocks forever.
                        0 => match engine.submit(Job::new(gain).data(input.to_vec())) {
                            Ok(h) => match bounded_wait(&h) {
                                Ok(data) => {
                                    assert_eq!(&data, expected_gain);
                                    tally.ok += 1;
                                }
                                Err(e) => tally.absorb_error(&e),
                            },
                            Err(e) => tally.absorb_error(&e),
                        },
                        // Non-blocking submit.
                        1 => match engine.try_submit(Job::new(gain).data(input.to_vec())) {
                            Ok(h) => match bounded_wait(&h) {
                                Ok(data) => {
                                    assert_eq!(&data, expected_gain);
                                    tally.ok += 1;
                                }
                                Err(e) => tally.absorb_error(&e),
                            },
                            Err(e) => tally.absorb_error(&e),
                        },
                        // Multi-step DAG.
                        2 => {
                            let mut sub = Submission::new();
                            let s = sub.step(gain, vec![JobInput::Data(Arc::clone(input))], vec![]);
                            sub.read(s);
                            match engine.try_submit(sub) {
                                Ok(h) => match bounded_wait(&h) {
                                    Ok(batch) => {
                                        assert_eq!(batch.output(s).expect("step"), expected_gain);
                                        tally.ok += 1;
                                    }
                                    Err(e) => tally.absorb_error(&e),
                                },
                                Err(e) => tally.absorb_error(&e),
                            }
                        }
                        // Retained pipeline, every third with an expired
                        // deadline (guaranteed shed if admitted).
                        3 => {
                            let mut job = PipelineJob::new(pipe).source(input.to_vec()).read("x");
                            if i % 3 == 0 {
                                job = job.deadline(Instant::now() - Duration::from_millis(1));
                            }
                            match engine.try_submit(job) {
                                Ok(h) => match bounded_wait(&h) {
                                    Ok(out) => {
                                        assert_eq!(
                                            out.output("x").expect("x"),
                                            expected_pipe.as_slice()
                                        );
                                        tally.ok += 1;
                                    }
                                    Err(e) => tally.absorb_error(&e),
                                },
                                Err(e) => tally.absorb_error(&e),
                            }
                        }
                        // Submit then immediately cancel: either the
                        // cancel wins (Cancelled) or the job runs (Ok).
                        _ => match engine.try_submit(Job::new(gain).data(input.to_vec())) {
                            Ok(h) => {
                                let won = h.cancel();
                                match bounded_wait(&h) {
                                    Ok(data) => {
                                        assert!(!won, "cancel() winning implies Cancelled");
                                        assert_eq!(&data, expected_gain);
                                        tally.ok += 1;
                                    }
                                    Err(e) => {
                                        if won {
                                            assert!(
                                                matches!(e, ComputeError::Cancelled),
                                                "cancel() won but job resolved {e:?}"
                                            );
                                        }
                                        tally.absorb_error(&e);
                                    }
                                }
                            }
                            Err(e) => tally.absorb_error(&e),
                        },
                    }
                }
                tally
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("producer"))
            .collect()
    });

    let mut grand = Outcomes::default();
    for t in totals {
        grand.submitted += t.submitted;
        grand.ok += t.ok;
        grand.queue_full += t.queue_full;
        grand.deadline += t.deadline;
        grand.cancelled += t.cancelled;
        grand.shutdown += t.shutdown;
        grand.other += t.other;
    }
    assert_eq!(grand.submitted, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(
        grand.total(),
        grand.submitted,
        "every submission resolves exactly once: {grand:?}"
    );
    assert_eq!(grand.other, 0, "outcome outside the partition: {grand:?}");
    assert_eq!(grand.shutdown, 0, "no shutdown errors before shutdown");
    assert!(grand.ok > 0, "a saturating load must still serve work");

    // Quiescent now — every handle resolved. Cancelled payloads are
    // discarded lazily at dequeue, so give the (idle) workers a moment
    // to pop any stale entry before asserting emptiness.
    let give_up = Instant::now() + Duration::from_secs(30);
    while engine.queue_depth() > 0 {
        assert!(Instant::now() < give_up, "queue never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = engine.snapshot();
    assert!(snap.counters_balanced(), "unbalanced snapshot: {snap:?}");
    assert_eq!(snap.submitted, grand.submitted);
    assert_eq!(snap.rejected, grand.queue_full);
    assert_eq!(snap.shed, grand.deadline);
    assert_eq!(snap.cancelled, grand.cancelled);
    assert_eq!(
        snap.completed, grand.ok,
        "completed == observed Ok results: {snap:?} vs {grand:?}"
    );
    assert_eq!(snap.failed, 0, "no job may fail: {snap:?} vs {grand:?}");
    assert!(snap.queue_capacity == 4 && snap.queue_depth_high_water <= 4);
    assert_eq!(snap.queue_depth, 0);

    // Shutdown with freshly queued work: every late handle resolves to
    // a result or the typed shutdown error — still no hangs.
    let late: Vec<_> = (0..8)
        .map(|_| engine.try_submit(Job::new(&gain).data(input.to_vec())))
        .collect();
    engine.shutdown();
    for submitted in late {
        match submitted {
            Ok(h) => match bounded_wait(&h) {
                Ok(data) => assert_eq!(&data, &expected_gain),
                Err(
                    ComputeError::EngineShutdown
                    | ComputeError::EngineInternal { .. }
                    | ComputeError::QueueFull { .. },
                ) => {}
                Err(other) => panic!("unexpected late outcome: {other:?}"),
            },
            Err(ComputeError::QueueFull { .. }) => {}
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    }
}
