package fault

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func arm(t *testing.T, spec string, seed uint64) {
	t.Helper()
	if err := Enable(spec, seed); err != nil {
		t.Fatalf("Enable(%q): %v", spec, err)
	}
	t.Cleanup(Disable)
}

func TestDisabledIsInert(t *testing.T) {
	Disable()
	if Spec() != "" {
		t.Fatal("armed after Disable")
	}
	if err := Maybe("persist.write"); err != nil {
		t.Fatalf("disabled Maybe returned %v", err)
	}
	var buf bytes.Buffer
	if w := Writer("persist.torn", &buf); w != &buf {
		t.Fatal("disabled Writer did not return the underlying writer")
	}
	Sleep("stream.fold.slow") // must return immediately
}

func TestUnarmedPointIsInert(t *testing.T) {
	arm(t, "persist.sync", 1)
	if err := Maybe("persist.write"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	if err := Maybe("persist.sync"); err == nil {
		t.Fatal("armed point did not fire")
	} else if !errors.As(err, new(*Error)) {
		t.Fatalf("armed point returned %v, want an injected *Error", err)
	}
}

func TestSpecValidation(t *testing.T) {
	for _, bad := range []string{
		"no.such.point",
		"persist.write:p=1.5",
		"persist.write:p=x",
		"persist.write:frob=1",
		"persist.write:delay",
		"persist.write,persist.write",
	} {
		if err := Enable(bad, 1); err == nil {
			Disable()
			t.Errorf("Enable(%q) accepted", bad)
		}
	}
	if err := Enable("", 1); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if Spec() != "" {
		t.Fatal("empty spec left injection armed")
	}
}

func TestAfterAndTimes(t *testing.T) {
	arm(t, "stream.fold.err:after=2:times=3", 7)
	var fires []int
	for i := 0; i < 10; i++ {
		if Maybe("stream.fold.err") != nil {
			fires = append(fires, i)
		}
	}
	if want := []int{2, 3, 4}; fmt.Sprint(fires) != fmt.Sprint(want) {
		t.Fatalf("fires at %v, want %v", fires, want)
	}
}

func TestProbabilityIsDeterministic(t *testing.T) {
	pattern := func(seed uint64) string {
		arm(t, "persist.write:p=0.5", seed)
		var b []byte
		for i := 0; i < 64; i++ {
			if Maybe("persist.write") != nil {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
		return string(b)
	}
	p1, p2, p3 := pattern(42), pattern(42), pattern(43)
	if p1 != p2 {
		t.Fatalf("same seed diverged:\n%s\n%s", p1, p2)
	}
	if p1 == p3 {
		t.Fatalf("different seeds produced identical pattern %s", p1)
	}
	if !bytes.Contains([]byte(p1), []byte{'1'}) || !bytes.Contains([]byte(p1), []byte{'0'}) {
		t.Fatalf("p=0.5 pattern degenerate: %s", p1)
	}
}

func TestSleepDelay(t *testing.T) {
	arm(t, "stream.fold.slow:delay=30ms:times=1", 1)
	start := time.Now()
	Sleep("stream.fold.slow")
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("armed Sleep returned after %v", d)
	}
	start = time.Now()
	Sleep("stream.fold.slow") // times=1 exhausted
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("exhausted Sleep stalled %v", d)
	}
}

func TestTornWriter(t *testing.T) {
	arm(t, "persist.torn:times=1", 9)
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte("smore"), 200)
	w := Writer("persist.torn", &buf)
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("torn write reported (%d, %v), want full success", n, err)
	}
	if n, err := w.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("second torn write reported (%d, %v)", n, err)
	}
	if buf.Len() == 0 || buf.Len() >= len(payload) {
		t.Fatalf("torn writer persisted %d of %d bytes, want a strict non-empty prefix", buf.Len(), len(payload))
	}
	if !bytes.Equal(buf.Bytes(), payload[:buf.Len()]) {
		t.Fatal("torn writer persisted non-prefix bytes")
	}
	// times=1 exhausted: the next Writer call passes through untouched.
	var buf2 bytes.Buffer
	if w := Writer("persist.torn", &buf2); w != &buf2 {
		t.Fatal("exhausted torn point still wrapped the writer")
	}
}

func TestSpecNormalized(t *testing.T) {
	arm(t, " stream.fold.err , persist.sync:times=1 ", 1)
	if got, want := Spec(), "persist.sync:times=1,stream.fold.err"; got != want {
		t.Fatalf("Spec() = %q, want %q", got, want)
	}
}

func TestErrorsAsChain(t *testing.T) {
	arm(t, "persist.rename", 1)
	err := fmt.Errorf("renaming checkpoint: %w", Maybe("persist.rename"))
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "persist.rename" {
		t.Fatalf("wrapped injected error lost its point: %v", err)
	}
}
