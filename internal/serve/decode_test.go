package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// refDecodeWindows is the windows decoder as it was before the byte
// scanner, verbatim: encoding/json reading the request body through
// MaxBytesReader. decodeWindows must agree with it on every body.
func refDecodeWindows(s *Server, w http.ResponseWriter, r *http.Request, req *predictRequest) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBody))
	if err := dec.Decode(req); err != nil {
		return s.bodyError(err, &httpError{http.StatusBadRequest, codeInvalidJSON, "invalid JSON: " + err.Error()})
	}
	if _, err := dec.Token(); err != io.EOF {
		return s.bodyError(err, &httpError{http.StatusBadRequest, codeTrailingData, "trailing data after JSON body"})
	}
	if len(req.Windows) == 0 {
		return &httpError{http.StatusBadRequest, codeEmptyBatch, "no windows in request"}
	}
	if len(req.Windows) > s.opt.MaxBatch {
		return &httpError{http.StatusRequestEntityTooLarge, codeBatchTooLarge, fmt.Sprintf("batch of %d windows exceeds maximum %d", len(req.Windows), s.opt.MaxBatch)}
	}
	return nil
}

// decodeServer is a server with only what decodeWindows reads.
func decodeServer(maxBody int64, maxBatch int) *Server {
	return &Server{opt: Options{MaxBody: maxBody, MaxBatch: maxBatch}.withDefaults(), met: newMetrics()}
}

func bodyRequest(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
}

// benchWindows returns n synthetic windows of steps timesteps × 4 sensors,
// the shape the service benchmark sends.
func benchWindows(tb testing.TB, n, steps int) [][][]float64 {
	tb.Helper()
	ds, err := data.Generate(data.Config{Sensors: 4, Classes: 2, WindowLen: steps, PerClass: n, Seed: 3,
		Domains: pipeline.DefaultDomains(1)})
	if err != nil {
		tb.Fatal(err)
	}
	return data.Windows(ds.Domains[0])[:n]
}

// benchBody is a windows body as the service benchmark builds it: the
// json.Marshal of n windows of 64 timesteps × 4 sensors.
func benchBody(tb testing.TB, n int) []byte {
	tb.Helper()
	body, err := json.Marshal(predictRequest{Windows: benchWindows(tb, n, 64)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkDecode decodes body with refDecodeWindows, and with decodeWindows on
// a pooled scratch, once with the body's length declared and once without,
// and fails unless they agree on success, on the error's status, code and
// message, on the flags, and on every window's and row's length and every
// value's bits.
func checkDecode(t *testing.T, s *Server, body []byte) {
	t.Helper()
	var want predictRequest
	wantErr := refDecodeWindows(s, httptest.NewRecorder(), bodyRequest(body), &want)
	for _, size := range []int64{int64(len(body)), -1} {
		r := bodyRequest(body)
		r.ContentLength = size
		sc := getScratch()
		var got predictRequest
		gotErr := s.decodeWindows(&responseRecorder{ResponseWriter: httptest.NewRecorder()}, r, sc, &got)
		compareDecode(t, body, got, gotErr, want, wantErr)
		putScratch(sc)
	}
}

func compareDecode(t *testing.T, body []byte, got predictRequest, gotErr error, want predictRequest, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decodeWindows error %v, reference error %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		if errStatus(gotErr) != errStatus(wantErr) || errCode(gotErr) != errCode(wantErr) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: decodeWindows fails %d %s %q, reference %d %s %q", body,
				errStatus(gotErr), errCode(gotErr), gotErr, errStatus(wantErr), errCode(wantErr), wantErr)
		}
		return
	}
	if got.SourceOnly != want.SourceOnly || got.Strategy != want.Strategy {
		t.Fatalf("body %q: source_only %v strategy %q, reference %v %q", body, got.SourceOnly, got.Strategy, want.SourceOnly, want.Strategy)
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("body %q: %d windows, reference %d", body, len(got.Windows), len(want.Windows))
	}
	for i, win := range want.Windows {
		if len(got.Windows[i]) != len(win) {
			t.Fatalf("body %q: window %d has %d rows, reference %d", body, i, len(got.Windows[i]), len(win))
		}
		for j, row := range win {
			if len(got.Windows[i][j]) != len(row) {
				t.Fatalf("body %q: window %d row %d has %d values, reference %d", body, i, j, len(got.Windows[i][j]), len(row))
			}
			for k, v := range row {
				if g := got.Windows[i][j][k]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("body %q: window %d row %d value %d is %v, reference %v", body, i, j, k, g, v)
				}
			}
		}
	}
}

// The fuzz server's limits are small enough for a mutated body to reach
// both.
const (
	fuzzMaxBody  = 512
	fuzzMaxBatch = 4
)

// decodeSeeds are bodies that reach every branch of the scanner and every
// encoding/json behaviour the fallback must keep.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	canonical, err := json.Marshal(predictRequest{Windows: benchWindows(tb, 1, 4)})
	if err != nil {
		tb.Fatal(err)
	}
	sized := func(n int) string { // canonical, padded with spaces to n bytes
		return string(canonical) + strings.Repeat(" ", n-len(canonical))
	}
	seeds := []string{
		string(canonical),
		`{"windows":[[[0.5,-1.25]]],"source_only":true,"strategy":"margin+constant+bundle"}`,
		`{"strategy":"","source_only":false,"windows":[[[1,2],[3,4]],[[5,6],[7,8]]]}`,
		// Unknown fields are ignored; duplicate keys decode into the
		// earlier value, and null leaves a slot as it was.
		`{"windows":[[[1,2]]],"extra":{"a":[1,"x",null]}}`,
		`{"windows":[[[5,6]]],"windows":[[[null,7]]]}`,
		`{"source_only":true,"source_only":false,"windows":[[[1]]]}`,
		// Key matching folds case and Unicode; escapes are decoded.
		`{"WINDOWS":[[[1]]]}`,
		`{"ſource_only":true,"windows":[[[1]]]}`,
		`{"\u0077indows":[[[1]]]}`,
		`{"windows":[[[1]]],"strategy":"a\u0062c"}`,
		`{"windows":[[[1]]],"strategy":"é"}`,
		// null at each level.
		`null`, `{"windows":null}`, `{"windows":[null]}`, `{"windows":[[null]]}`, `{"windows":[[[null]]]}`,
		`{"windows":[[[1]]],"source_only":null}`,
		// Numbers: exponents, signed zero, overflow and underflow, leading
		// zeros and other grammar edges.
		`{"windows":[[[1e3,2E-2,-3.5e+1,0e0,1.0E+0]]]}`,
		`{"windows":[[[-0,-0.0,0]]]}`,
		`{"windows":[[[1e400]]]}`, `{"windows":[[[1e-400]]]}`,
		`{"windows":[[[01]]]}`, `{"windows":[[[-01.5]]]}`, `{"windows":[[[1.]]]}`, `{"windows":[[[.5]]]}`,
		`{"windows":[[[+1]]]}`, `{"windows":[[[1e]]]}`, `{"windows":[[[-]]]}`, `{"windows":[[["1"]]]}`,
		`{"windows":[[[1,]]]}`, `{"windows":[[[,1]]]}`, `{"windows":[[[1 2]]]}`,
		// Empty arrays at each level, and batch bounds.
		`{}`, `{"windows":[]}`, `{"windows":[[]]}`, `{"windows":[[[]]]}`, `{"windows":[[],[[]],[[],[1]]]}`,
		`{"windows":[[],[],[],[],[]]}`,
		// Odd whitespace and truncation.
		" \t\r\n{ \"windows\" : [ [ [ 1 , 2 ] \n] ] , \"source_only\"\t:\rtrue } \n",
		`{"windows":[[[1,2`, `{"windows":[[[1,2]]]`, `{"windows"`, `{`, ``, ` `,
		// Trailing data, and an unterminated string running past the cap.
		`{"windows":[[[1]]]}x`, `{"windows":[[[1]]]}1`, `{"windows":[[[1]]]}{`,
		`{"windows":[[[1]]],"strategy":"` + strings.Repeat("a", fuzzMaxBody),
		`{"windows":[[[1]]]} "` + strings.Repeat("a", fuzzMaxBody),
		// Bodies just inside, at and just past the cap.
		sized(fuzzMaxBody - 1), sized(fuzzMaxBody), sized(fuzzMaxBody + 1),
		`{nope` + strings.Repeat(" ", fuzzMaxBody),
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDecodeWindows holds decodeWindows to refDecodeWindows on any body.
func FuzzDecodeWindows(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	s := decodeServer(fuzzMaxBody, fuzzMaxBatch)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, s, body)
	})
}

// TestDecodeWindowsBenchBodies checks the service benchmark's body shapes
// against the reference at the default limits, and pins steady-state
// decoding of them at zero allocations. decodeSlow allocates, so the pin
// also shows that the scanner accepted the bodies.
func TestDecodeWindowsBenchBodies(t *testing.T) {
	s := decodeServer(0, 0)
	for _, n := range []int{1, 64} {
		body := benchBody(t, n)
		checkDecode(t, s, body)
		if raceEnabled {
			continue
		}
		sc := new(windowScratch)
		rd := bytes.NewReader(body)
		var req predictRequest
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			if err := s.decodeBody(rd, int64(len(body)), sc, &req); err != nil || len(req.Windows) != n {
				t.Fatalf("%d windows: decoded %d windows, error %v", n, len(req.Windows), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d-window body: %v allocations per steady-state decode, want 0", n, allocs)
		}
	}
}

// reusableBody is a request body that can be rewound to the same bytes, so
// a benchmark iteration allocates only what the decoder does.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

func BenchmarkDecodeWindows(b *testing.B) {
	s := decodeServer(0, 0)
	for _, n := range []int{1, 64} {
		body := benchBody(b, n)
		rd := bytes.NewReader(body)
		r := bodyRequest(body)
		r.Body = reusableBody{rd}
		w := &responseRecorder{ResponseWriter: httptest.NewRecorder()}
		for _, impl := range []struct {
			name   string
			decode func(*predictRequest) error
		}{
			{"scanner", func(req *predictRequest) error {
				sc := getScratch()
				defer putScratch(sc)
				return s.decodeWindows(w, r, sc, req)
			}},
			{"encoding-json", func(req *predictRequest) error { return refDecodeWindows(s, w, r, req) }},
		} {
			b.Run(fmt.Sprintf("windows=%d/%s", n, impl.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					rd.Reset(body)
					var req predictRequest
					if err := impl.decode(&req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBodyTooLargeClosesConnection pins that a body past MaxBody answers
// 413 body_too_large on a connection the server then closes, rather than
// one it keeps alive by draining the rest of the rejected body; and that a
// syntax error inside the first MaxBody bytes still answers 400
// invalid_json, as encoding/json reports it before the size error.
func TestBodyTooLargeClosesConnection(t *testing.T) {
	const maxBody = 1024
	_, ts, art, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, MaxBody: maxBody})
	big, err := json.Marshal(predictRequest{Windows: windows[:16]})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) < 8<<10 {
		t.Fatalf("windows body is %d bytes, want at least 8 KB", len(big))
	}
	var bundle bytes.Buffer
	if _, err := art.Bundle().WriteTo(&bundle); err != nil {
		t.Fatal(err)
	}
	if bundle.Len() <= maxBody {
		t.Fatalf("bundle is %d bytes, want more than %d", bundle.Len(), maxBody)
	}
	for _, tt := range []struct {
		name, path string
		body       []byte
		status     int
		code       string
		wantClose  bool
	}{
		{"predict", "/v1/predict", big, http.StatusRequestEntityTooLarge, codeBodyTooLarge, true},
		{"adapt", "/v1/adapt", big, http.StatusRequestEntityTooLarge, codeBodyTooLarge, true},
		{"stream_adapt", "/v1/stream/adapt", big, http.StatusRequestEntityTooLarge, codeBodyTooLarge, true},
		{"model_upload", "/v1/models/x", bundle.Bytes(), http.StatusRequestEntityTooLarge, codeBodyTooLarge, true},
		{"syntax_error_first", "/v1/predict", []byte(`{nope` + strings.Repeat(" ", 4<<10)), http.StatusBadRequest, codeInvalidJSON, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tt.path, "application/json", bytes.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			env := decodeBody[errorEnvelope](t, resp)
			if resp.StatusCode != tt.status || env.Error.Code != tt.code {
				t.Fatalf("answered %d %s, want %d %s", resp.StatusCode, env.Error.Code, tt.status, tt.code)
			}
			if tt.wantClose && !resp.Close {
				t.Fatal("a body_too_large answer left the connection open (no Connection: close)")
			}
		})
	}
}

// TestStreamWindowsOutlivePooledScratch pins that windows queued by
// stream/adapt own their memory: a fold is held open, a second batch waits
// in the queue behind it, and predicts with other bodies cycle the decode
// pool meanwhile. The model must then equal a replica folded with the
// original windows at the same batch boundaries.
func TestStreamWindowsOutlivePooledScratch(t *testing.T) {
	_, ts, art, windows := testServer(t)
	rule := &blockingRule{entered: make(chan struct{}), release: make(chan struct{})}
	art.Model.SetStrategy(model.Strategy{Confidence: rule})
	release := sync.OnceFunc(func() { close(rule.release) })
	defer release()

	// A fresh connection per request and two concurrent clients spread the
	// handlers over every P, so every P's pool slot gets recycled.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	post := func(path string, ws [][][]float64, status int) error {
		raw, err := json.Marshal(predictRequest{Windows: ws})
		if err != nil {
			return err
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != status {
			return fmt.Errorf("%s answered %d, want %d", path, resp.StatusCode, status)
		}
		return nil
	}
	if err := post("/v1/stream/adapt", windows[:4], http.StatusAccepted); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rule.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first stream fold never started")
	}
	if err := post("/v1/stream/adapt", windows[4:8], http.StatusAccepted); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 16 {
				lo := 8 + (2*i+g)%(len(windows)-10)
				if err := post("/v1/predict", windows[lo:lo+2], http.StatusOK); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	release()
	waitStreamDrained(t, ts.URL, 8)

	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, refWindows := testArtifacts(t)
	for _, batch := range [][][][]float64{refWindows[:4], refWindows[4:8]} {
		hvs, err := ref.Encoder.EncodeBatch(batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Model.AdaptIncremental(hvs, 1); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if _, err := ref.Bundle().WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatal("the streamed model differs from a replica folded with the original windows: queued windows were overwritten")
	}
}
