//! Fixture: forbidden tokens inside comments and strings must not fire.
//! A doc mention of .unwrap() or panic! is not a use of either.
pub fn describe() -> &'static str {
    // .expect( and unreachable! are only named in this comment.
    "prefer ? over .unwrap(); never call panic! or .expect(\"…\")"
}
