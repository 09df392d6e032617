//! Characterization of the session readers that see every vote, excluded
//! workers' included, while aggregation sees only the visible ones.
//!
//! Two workers are banned by hand (`set_worker_excluded`) and keep voting.
//! Three readers must still count their votes:
//!
//! * the copy heuristic's prior-modal tally: the two banned workers outvote
//!   a visible one on contested objects, and a copier then votes with them;
//! * the §5.3 detector: a banned constant-answer worker is validated
//!   against six times, above `min_validated_answers`, and gets flagged;
//! * the per-voter trust update of a validation: the banned workers'
//!   validated answers are counted.

use crowdval_core::{EntropyBaseline, ValidationSession, ValidationSessionBuilder};
use crowdval_model::{LabelId, ObjectId, Vote, WorkerId};

const HONEST: [usize; 3] = [0, 1, 2];
const COPIER: usize = 3;
const BANNED: [usize; 2] = [4, 5];

fn vote(object: usize, worker: usize, label: usize) -> Vote {
    Vote::new(ObjectId(object), WorkerId(worker), LabelId(label))
}

fn truth(object: usize) -> usize {
    if object < 4 {
        object % 2
    } else if object < 14 {
        0
    } else {
        1
    }
}

fn scripted_session() -> ValidationSession {
    let mut session = ValidationSessionBuilder::empty(2)
        .strategy(Box::new(EntropyBaseline))
        .build();

    // Everyone votes on objects 0..4; the banned workers always answer 1.
    let mut first = Vec::new();
    for o in 0..4 {
        for w in HONEST.into_iter().chain([COPIER]) {
            first.push(vote(o, w, truth(o)));
        }
        for w in BANNED {
            first.push(vote(o, w, 1));
        }
    }
    session.ingest(&first).unwrap();
    for w in BANNED {
        assert!(session.set_worker_excluded(WorkerId(w), true).unwrap());
    }

    // Objects 4..14 (truth 0) are contested 2-1 by the banned workers
    // against one honest worker before the copier sides with the banned
    // pair. Objects 14..18 (truth 1) are unanimous.
    let mut second = Vec::new();
    for o in 4..18 {
        for w in BANNED {
            second.push(vote(o, w, 1));
        }
        second.push(vote(o, HONEST[0], truth(o)));
        second.push(vote(o, COPIER, 1));
        for w in &HONEST[1..] {
            second.push(vote(o, *w, truth(o)));
        }
    }
    session.ingest(&second).unwrap();

    for o in [4, 5, 6, 14, 15, 7] {
        session.integrate(ObjectId(o), LabelId(truth(o))).unwrap();
    }
    session
}

/// The expected values were recorded by running this script on the session
/// that kept an unmasked clone of the corpus for these readers. Reading any
/// one of them through the mask changes a value below.
#[test]
fn excluded_workers_stay_visible_to_the_unmasked_readers() {
    let session = scripted_session();
    assert_eq!(
        session.excluded_workers(),
        vec![WorkerId(BANNED[0]), WorkerId(BANNED[1])]
    );

    let trust: Vec<(u64, u64, bool)> = session
        .worker_trust_reports()
        .iter()
        .map(|r| (r.suspicion.to_bits(), r.validations, r.em_flagged))
        .collect();
    let posterior: Vec<u64> = (0..session.answers().num_objects())
        .map(|o| {
            session
                .current()
                .assignment()
                .prob(ObjectId(o), LabelId(0))
                .to_bits()
        })
        .collect();
    // (suspicion bits, validations, em_flagged) per worker.
    let one = 1.0f64.to_bits();
    assert_eq!(
        trust,
        vec![
            (0, 6, false),
            (0, 6, false),
            (0, 6, false),
            (one, 6, true),
            (one, 6, true),
            (one, 6, true),
        ]
    );

    // P(label 0) per object.
    let (a, b, c) = (
        0x3fef_ffff_fffc_dcfa,
        0x3e10_9624_93a8_f090,
        0x3fef_ffff_fe85_72c0,
    );
    let mut expected = vec![a, b, a, b];
    expected.extend([one; 4]);
    expected.extend([c; 6]);
    expected.extend([0, 0, b, b]);
    assert_eq!(posterior, expected);
}

/// The session's one answer set counts the banned workers' votes as
/// recorded but not as visible.
#[test]
fn the_answer_set_counts_visible_and_recorded_votes() {
    let session = scripted_session();
    let matrix = session.answers().matrix();
    assert_eq!(matrix.num_recorded_answers(), 4 * 6 + 14 * 6);
    assert_eq!(matrix.num_answers(), 4 * 4 + 14 * 4);
    assert_eq!(session.votes_ingested(), matrix.num_recorded_answers());
}
