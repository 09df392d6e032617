//! Replays the committed smoke conversation (`tests/data/conversation.jsonl`)
//! through an in-process [`ValidationService`] and diffs every reply against
//! the committed golden transcript — the same check the CI `build-and-test`
//! job performs through the `crowdval-serve` binary, minus the process
//! boundary. Keeping it in `cargo test` means a protocol or engine change
//! that shifts the wire output fails locally, not just in CI.

use crowdval_service::{Reply, RequestEnvelope, ServiceError, ValidationService};

const CONVERSATION: &str = include_str!("data/conversation.jsonl");
const GOLDEN: &str = include_str!("data/conversation.golden.jsonl");

#[test]
fn committed_conversation_matches_golden_transcript() {
    let mut service = ValidationService::new();
    let mut replies: Vec<String> = Vec::new();
    for line in CONVERSATION.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let reply = match serde_json::from_str::<RequestEnvelope>(trimmed) {
            Ok(envelope) => service.reply(&envelope),
            Err(e) => Reply::err(
                0,
                ServiceError::MalformedRequest {
                    message: e.to_string(),
                },
            ),
        };
        replies.push(serde_json::to_string(&reply).unwrap());
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        replies.len(),
        golden.len(),
        "reply count diverged from the golden transcript"
    );
    for (i, (actual, expected)) in replies.iter().zip(&golden).enumerate() {
        assert_eq!(
            actual, expected,
            "reply {i} diverged from the golden transcript"
        );
    }
}
