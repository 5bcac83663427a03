// Package fut exercises the futureerr analyzer: unsynchronized result
// reads, every accepted synchronization form, discarded Wait errors, and
// a leftover generic suppression.
package fut

import "errors"

//skueue:future
type Future struct{ done chan struct{} }

func (f *Future) Wait() error { return errors.New("x") }
func (f *Future) Result() (any, bool, error) {
	return nil, false, errors.New("x")
}
func (f *Future) Err() error            { return nil }
func (f *Future) Completed() bool       { return true }
func (f *Future) Done() <-chan struct{} { return f.done }
func (f *Future) Value() []byte         { return nil }
func (f *Future) Empty() bool           { return false }
func (f *Future) Rounds() uint64        { return 0 }

//skueue:awaits-future
func await(f *Future) {}

func bad(f *Future) {
	_ = f.Value() // want `f\.Value read before synchronizing on completion`
}

func good(f *Future) {
	if err := f.Wait(); err != nil {
		return
	}
	_ = f.Value() // ok
}

func discarded(f *Future) {
	f.Wait()      // want `f\.Wait error discarded`
	_ = f.Value() // ok: Wait still synchronized, its error is the finding
}

func viaResult(f *Future) {
	if _, _, err := f.Result(); err != nil {
		return
	}
	_ = f.Rounds() // ok: Result is a synchronization point
}

func discardedResult(f *Future) {
	f.Result() // want `f\.Result error discarded`
}

func viaCompleted(f *Future) {
	if !f.Completed() {
		return
	}
	_ = f.Empty() // ok
}

func viaHelper(f *Future) {
	await(f)
	_ = f.Empty() // ok
}

func viaDone(f *Future) {
	<-f.Done()
	_ = f.Rounds() // ok
}

func wrongReceiver(f, g *Future) {
	_ = f.Wait()
	_ = g.Value() // want `g\.Value read before synchronizing`
}

// There is no generic suppression: //skueue:ignore is an unknown marker,
// and the read below it is still reported.
func leftoverSuppression(f *Future) {
	//skueue:ignore futureerr // want `\[lint\] unknown marker //skueue:ignore`
	_ = f.Value() // want `f\.Value read before synchronizing`
}
