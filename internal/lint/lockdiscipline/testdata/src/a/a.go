// Fixture for the lockdiscipline analyzer: banned work under watched
// mutexes, lock leaks, and the flow shapes (early-unlock branches, defers,
// goroutines, closures) that must stay clean.
package a

import (
	"encoding/json"
	"os"
	"sync"

	"encode"
	"stream"
)

type Ensemble struct {
	mu sync.Mutex
	n  int
}

type registry struct {
	mu sync.Mutex
}

func badMarshalUnderLock(m *Ensemble, enc *encode.Encoder) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _ = json.Marshal(m.n) // want `encoding/json call encoding/json\.Marshal while Ensemble\.mu is held \(locked at line \d+\)`
	return enc.Encode(nil)   // want `encode entry point \(\*encode\.Encoder\)\.Encode while Ensemble\.mu is held`
}

func badCloseUnderLock(g *registry, a *stream.Adapter) {
	g.mu.Lock()
	_ = a.Close() // want `stream fold entry point \(\*stream\.Adapter\)\.Close while registry\.mu is held`
	g.mu.Unlock()
}

func badFileIOUnderLock(m *Ensemble, f *os.File) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = os.Rename("a", "b") // want `os file-I/O call os\.Rename while Ensemble\.mu is held`
	_, _ = f.Write(nil)     // want `os file-I/O call \(\*os\.File\)\.Write while Ensemble\.mu is held`
	return f.Sync()         // want `os file-I/O call \(\*os\.File\)\.Sync while Ensemble\.mu is held`
}

func goodFileIOOffLock(m *Ensemble, f *os.File) error {
	m.mu.Lock()
	n := m.n
	m.mu.Unlock()
	if err := os.WriteFile("a", []byte{byte(n)}, 0o644); err != nil {
		return err
	}
	return f.Sync()
}

func badLeakOnReturn(m *Ensemble, cond bool) {
	m.mu.Lock()
	if cond {
		return // want `Ensemble\.mu locked at line \d+ is still held at this return`
	}
	m.mu.Unlock()
}

func badLeakAtEnd(m *Ensemble) {
	m.mu.Lock()
	m.n++
} // want `Ensemble\.mu locked at line \d+ is still held at function end`

func goodMarshalOffLock(m *Ensemble) error {
	m.mu.Lock()
	n := m.n
	m.mu.Unlock()
	_, err := json.Marshal(n)
	return err
}

func goodEarlyUnlockBranch(g *registry, a *stream.Adapter, cond bool) {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		_ = a.Close()
		return
	}
	g.mu.Unlock()
}

func goodDeferUnlock(m *Ensemble) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
}

func goodGoroutineOutsideSection(m *Ensemble) {
	m.mu.Lock()
	go func() {
		_, _ = json.Marshal(1) // the goroutine runs outside the critical section
	}()
	m.mu.Unlock()
}

func goodClosureNotInvoked(m *Ensemble) func() {
	m.mu.Lock()
	f := func() { _, _ = json.Marshal(2) } // runs later, after the unlock
	m.mu.Unlock()
	return f
}

func badClosureInvokedUnderLock(m *Ensemble) {
	m.mu.Lock()
	func() {
		_, _ = json.Marshal(m.n) // want `encoding/json call encoding/json\.Marshal while Ensemble\.mu is held`
	}()
	m.mu.Unlock()
}

func goodSuppressed(m *Ensemble) {
	m.mu.Lock()
	//smorevet:allow lockdiscipline -- fixture: demonstrates per-site suppression
	_, _ = json.Marshal(m.n)
	m.mu.Unlock()
}
