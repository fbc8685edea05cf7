//! Content addresses: one digest over a value's canonical JSON, shared
//! by every tool that compares runs.

use scalecheck_memo::digest_bytes;
use serde::Serialize;

/// The content address of a serializable value: 128-bit FNV-1a over its
/// canonical JSON, as 32 hex characters. Witness report digests, the
/// traffic log digest and the whole-run pins all use it, so digests are
/// comparable across tools.
pub fn content_digest<T: Serialize + ?Sized>(value: &T) -> String {
    let text = serde_json::to_string(value).expect("value serializes");
    format!("{:032x}", digest_bytes(text.as_bytes()).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_get_distinct_digests() {
        let a = content_digest(&("square", 1u64));
        let b = content_digest(&("square", 2u64));
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }
}
