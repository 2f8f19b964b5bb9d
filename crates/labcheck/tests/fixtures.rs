//! Fixture tests for each labcheck lint: good and bad snippets as
//! in-memory strings, asserting exact `file:line` diagnostics and every
//! annotation escape hatch.

use labstor_labcheck::{lint_source, render_json, render_text, Config, Lint};

fn cfg() -> Config {
    Config::labstor()
}

/// Config whose hot paths match the fixture names used below.
fn fixture_cfg() -> Config {
    let mut c = Config::labstor();
    c.hot_paths.push(labstor_labcheck::lint::HotPath {
        file_suffix: "fixtures/hot.rs",
        function: None,
    });
    c.hot_paths.push(labstor_labcheck::lint::HotPath {
        file_suffix: "fixtures/hot_fn.rs",
        function: Some("poll_loop"),
    });
    c
}

fn lines_with(diags: &[labstor_labcheck::Diagnostic], lint: Lint) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| d.line)
        .collect()
}

// ---- lint 1: relaxed-ordering ------------------------------------------

#[test]
fn relaxed_without_annotation_is_flagged_with_exact_line() {
    let src = "\
fn f(c: &AtomicU64) {
    c.load(Ordering::Acquire);
    c.fetch_add(1, Ordering::Relaxed);
}
";
    let diags = lint_source(&cfg(), "crates/x/src/a.rs", src);
    assert_eq!(lines_with(&diags, Lint::RelaxedOrdering), vec![3]);
    assert_eq!(diags[0].file, "crates/x/src/a.rs");
}

#[test]
fn relaxed_annotated_same_line_passes() {
    let src = "c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: pure counter\n";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn relaxed_annotated_preceding_line_passes() {
    let src = "\
// relaxed-ok: monotonic stat, readers tolerate lag
c.fetch_add(1, Ordering::Relaxed);
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn relaxed_in_cfg_test_module_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t(c: &AtomicU64) {
        c.load(Ordering::Relaxed);
    }
}
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn relaxed_in_allowlisted_file_is_exempt() {
    let src = "c.load(Ordering::Relaxed);\n";
    assert!(lint_source(&cfg(), "crates/sim/src/stats.rs", src).is_empty());
    assert_eq!(lint_source(&cfg(), "crates/sim/src/other.rs", src).len(), 1);
}

#[test]
fn relaxed_inside_string_or_comment_is_not_code() {
    let src = "\
let s = \"Ordering::Relaxed\";
// Ordering::Relaxed in prose is fine.
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

// ---- lint 2: hot-path-panic --------------------------------------------

#[test]
fn panic_constructs_in_hot_file_are_flagged() {
    let src = "\
fn push(&mut self) {
    let x = self.q.pop().unwrap();
    self.map.get(&x).expect(\"present\");
    panic!(\"boom\");
}
";
    let diags = lint_source(&fixture_cfg(), "fixtures/hot.rs", src);
    assert_eq!(lines_with(&diags, Lint::HotPathPanic), vec![2, 3, 4]);
}

#[test]
fn indexing_in_hot_file_is_flagged_but_annotation_escapes() {
    let src = "\
fn get(&self) {
    let a = self.buf[i & (self.cap() - 1)];
    // panic-ok: index is masked by cap-1, always in bounds
    let b = self.buf[j & (self.cap() - 1)];
}
";
    let diags = lint_source(&fixture_cfg(), "fixtures/hot.rs", src);
    assert_eq!(lines_with(&diags, Lint::HotPathPanic), vec![2]);
    assert!(diags[0].message.contains("indexing"));
}

#[test]
fn array_literals_and_attributes_are_not_indexing() {
    let src = "\
#[allow(clippy::too_many_arguments)]
fn f() {
    let a = [0u8; 4];
    let t: [u8; 2] = [1, 2];
}
";
    assert!(lint_source(&fixture_cfg(), "fixtures/hot.rs", src).is_empty());
}

#[test]
fn unwrap_outside_hot_path_files_is_allowed() {
    let src = "fn f() { x.unwrap(); }\n";
    assert!(lint_source(&fixture_cfg(), "crates/x/src/cold.rs", src).is_empty());
}

#[test]
fn function_scoped_hot_path_only_covers_that_fn() {
    let src = "\
fn spawn() {
    builder.spawn(f).expect(\"spawn\");
}
fn poll_loop() {
    q.pop().unwrap();
}
fn teardown() {
    j.join().unwrap();
}
";
    let diags = lint_source(&fixture_cfg(), "fixtures/hot_fn.rs", src);
    assert_eq!(lines_with(&diags, Lint::HotPathPanic), vec![5]);
}

#[test]
fn hot_path_test_module_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { q.pop().unwrap(); }
}
";
    assert!(lint_source(&fixture_cfg(), "fixtures/hot.rs", src).is_empty());
}

// ---- lint 3: unsafe-hygiene --------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let src = "\
fn f(p: *mut u8) {
    unsafe { *p = 0 };
}
";
    let diags = lint_source(&cfg(), "a.rs", src);
    assert_eq!(lines_with(&diags, Lint::UnsafeHygiene), vec![2]);
}

#[test]
fn unsafe_with_safety_block_above_passes() {
    let src = "\
fn f(p: *mut u8) {
    // SAFETY: p is valid for writes; we hold the only reference.
    // (continued justification)
    unsafe { *p = 0 };
}
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn unsafe_impl_needs_its_own_safety_comment() {
    let src = "\
// SAFETY: ownership of T moves with the queue.
unsafe impl<T: Send> Send for Q<T> {}
unsafe impl<T: Send> Sync for Q<T> {}
";
    let diags = lint_source(&cfg(), "a.rs", src);
    // Line 2 is covered by the comment; line 3 is not (code line between).
    assert_eq!(lines_with(&diags, Lint::UnsafeHygiene), vec![3]);
}

#[test]
fn unsafe_in_test_code_still_requires_safety() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t(p: *mut u8) {
        unsafe { *p = 1 };
    }
}
";
    let diags = lint_source(&cfg(), "a.rs", src);
    assert_eq!(lines_with(&diags, Lint::UnsafeHygiene), vec![4]);
}

#[test]
fn unsafe_word_in_identifier_is_not_flagged() {
    let src = "fn not_unsafe_here() { let unsafety = 1; }\n";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

// ---- lint 4: labmod-contract -------------------------------------------

#[test]
fn labmod_impl_missing_both_hooks_is_flagged() {
    let src = "\
impl LabMod for Passthrough {
    fn type_name(&self) -> &'static str { \"pt\" }
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/pt.rs", src);
    assert_eq!(lines_with(&diags, Lint::LabModContract), vec![1]);
    assert!(diags[0].message.contains("state_update and state_repair"));
}

#[test]
fn labmod_impl_missing_only_repair_names_it() {
    let src = "\
impl LabMod for Cache {
    fn state_update(&self, old: &dyn LabMod) { self.warm(old); }
}
";
    let diags = lint_source(&cfg(), "m.rs", src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("state_repair"));
    assert!(!diags[0].message.contains("state_update and"));
}

#[test]
fn labmod_impl_with_both_hooks_passes() {
    let src = "\
impl LabMod for Durable {
    fn state_update(&self, old: &dyn LabMod) {}
    fn state_repair(&self) {}
}
";
    assert!(lint_source(&cfg(), "m.rs", src).is_empty());
}

#[test]
fn labmod_default_ok_annotation_escapes() {
    let src = "\
// labmod-default-ok: stateless pass-through, nothing to migrate
impl LabMod for Noop {
    fn type_name(&self) -> &'static str { \"noop\" }
}
";
    assert!(lint_source(&cfg(), "m.rs", src).is_empty());
}

#[test]
fn labmod_impl_in_test_module_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    impl LabMod for Probe {
        fn type_name(&self) -> &'static str { \"probe\" }
    }
}
";
    assert!(lint_source(&cfg(), "m.rs", src).is_empty());
}

// ---- lint 5: payload-copy -----------------------------------------------

#[test]
fn to_vec_in_copy_hot_path_is_flagged() {
    let src = "\
fn hit(&self) -> Vec<u8> {
    self.block.to_vec()
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/lru.rs", src);
    assert_eq!(lines_with(&diags, Lint::PayloadCopy), vec![2]);
    assert!(diags[0].message.contains("note_payload_copy"));
}

#[test]
fn payload_clone_is_flagged_but_handle_clone_is_not() {
    let src = "\
fn f(&self) {
    let a = data.clone();
    let b = buf.clone();
    let c = req.clone();
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/labfs.rs", src);
    assert_eq!(lines_with(&diags, Lint::PayloadCopy), vec![2]);
}

#[test]
fn copy_ok_annotation_escapes_payload_copy() {
    let src = "\
// copy-ok: legacy Vec fallback; counted via note_payload_copy
let d = data.clone();
let v = stored.to_vec(); // copy-ok: decoder needs owned bytes
";
    assert!(lint_source(&cfg(), "crates/mods/src/labkvs.rs", src).is_empty());
}

#[test]
fn copies_outside_copy_hot_modules_are_allowed() {
    let src = "let d = data.to_vec();\n";
    assert!(lint_source(&cfg(), "crates/core/src/request.rs", src).is_empty());
}

#[test]
fn copies_in_test_code_are_exempt_from_payload_copy() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { let d = data.to_vec(); }
}
";
    assert!(lint_source(&cfg(), "crates/mods/src/lru.rs", src).is_empty());
}

// ---- output formats -----------------------------------------------------

#[test]
fn text_rendering_is_file_line_lint_message() {
    let src = "c.load(Ordering::Relaxed);\n";
    let diags = lint_source(&cfg(), "crates/x/src/a.rs", src);
    let text = render_text(&diags);
    assert!(
        text.starts_with("crates/x/src/a.rs:1: [relaxed-ordering] "),
        "got: {text}"
    );
}

#[test]
fn json_rendering_is_machine_readable() {
    let src = "unsafe { x(); } // no justification\n";
    let diags = lint_source(&cfg(), "a.rs", src);
    let json = render_json(&diags);
    assert!(json.contains("\"file\": \"a.rs\""));
    assert!(json.contains("\"line\": 1"));
    assert!(json.contains("\"lint\": \"unsafe-hygiene\""));
    assert_eq!(render_json(&[]).trim(), "[]");
}

#[test]
fn json_rendering_escapes_special_characters() {
    // A path with a quote and backslash must not produce broken JSON.
    let diags = lint_source(&cfg(), "dir\\a\"b.rs", "unsafe { x(); }\n");
    let json = render_json(&diags);
    assert!(json.contains("dir\\\\a\\\"b.rs"), "got: {json}");
}
