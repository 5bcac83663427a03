// Package analysis is a small, self-contained static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, built only on the
// standard library's go/ast and go/types (the x/tools module is not a
// dependency of this repo, and the build environment is offline — see
// the loader in load.go for how packages are type-checked without it).
//
// It exists to mechanically enforce the repo's load-bearing concurrency
// and durability invariants — rules that previously lived only in
// DESIGN.md prose and code review:
//
//   - runnerblock: code reachable from the transport runner hot path must
//     never block (no fsync, no time.Sleep, no dial, no unguarded channel
//     send). PR 5's fsync-on-the-runner bug is the motivating regression.
//   - lockorder: mutexes nest only along the declared lock hierarchy, and
//     ranked locks are not held across blocking channel operations or
//     blocking I/O (unless the lock is declared an I/O guard).
//   - releaseorder: a client-visible outcome (wire.CliDone carrying a
//     result) is released to a session only through the durability seam's
//     parked releases — after the covering fsync; a member without stable
//     storage runs the same releases inline — with no journal-disabled
//     exemption (PR 4/5's journaled-before-release contract).
//   - futureerr: results of a Future are only read after synchronizing on
//     its completion, and Wait errors are not discarded (the remote-future
//     hang class fixed ad hoc in PR 5).
//   - statecomplete: every field of a struct marked as snapshot state is
//     either referenced (transitively, through helpers and interface
//     implementations) by the struct's marked capture AND restore
//     functions, or carries a justified //skueue:ephemeral marker — so a
//     field added to recovery-critical state cannot silently be dropped
//     from the member image (the earlyReplies/earlyAcks gap class). The
//     image side is checked too: an image field no snapshot function
//     reads is dead, and one that is captured but never restored (or
//     vice versa) is half-wired.
//   - guardedby: fields annotated with their guarding mutex are only
//     accessed while that mutex is lexically held, from a helper marked
//     //skueue:locked (whose call sites must hold the mutex), or inside
//     a function marked //skueue:owned-by (single-owner phases like
//     constructors and pre-Start restore).
//
// # Declaring invariants in source
//
// Analyzers are driven by machine-readable marker comments placed on the
// declarations they concern, so the rules live next to the code they
// protect and testdata packages can declare their own:
//
//	//skueue:runner                  — func: root of the runner hot path
//	//skueue:runs-on-runner          — func: func-literal args run on the runner
//	//skueue:nonblocking -- reason   — func: trusted not to block (pruned)
//	//skueue:blocking -- reason      — func: blocks by design; calling it
//	                                   from the hot path is a violation
//	//skueue:lock <rank> [io]        — mutex field: hierarchy rank; "io"
//	                                   permits blocking I/O while held
//	//skueue:client-release          — func: hands frames to a client session
//	//skueue:client-outcome          — type: the client completion frame
//	//skueue:journaled-release       — func: a parked release (or its builder):
//	                                   runs once the record is durable; the only
//	                                   place an outcome may be released from
//	//skueue:future                  — type: a future with Value/Err/Done
//	//skueue:awaits-future           — func: synchronizes a future argument
//	//skueue:snapshot-state <Image>  — struct: survives restarts via the
//	                                   named image struct
//	//skueue:snapshot-capture <S...> — func: capture root for the named
//	                                   snapshot-state structs
//	//skueue:snapshot-restore <S...> — func: restore root for the named
//	                                   snapshot-state structs
//	//skueue:ephemeral -- reason     — field: justified as not surviving
//	                                   a restart
//	//skueue:guarded-by <mu>         — field: accessed only under the
//	                                   sibling mutex field <mu> (or
//	                                   <Type>.<mu> for another struct's)
//	//skueue:locked <mu>             — method: called with the receiver's
//	                                   <mu> held (checked at call sites)
//	//skueue:owned-by <o> -- reason  — func: exclusive-owner phase; guarded
//	                                   fields are accessible throughout
//
// A marker outside this table is reported. There is no generic
// suppression: a false finding is fixed in the analyzer, and code a rule
// legitimately exempts carries that rule's own marker (nonblocking, io,
// owned-by, locked, ephemeral, awaits-future, journaled-release).
//
// Wire registration and the mode seam are checked by tests, not here:
// internal/core's TestWireRoundTrip and TestNodeIsModeFree (plus the
// compiler) catch every regression scored against them (EXPERIMENTS.md,
// "What each analyzer catches").
package analysis
