package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// decodeWindows reads a windows request body and parses it into req, then
// bounds the batch. A canonical body — what json.Marshal of the request
// writes — is parsed by scan straight into sc's flat buffers, so req's
// windows are views into sc until sc is reused. Every other body, and any
// body whose read failed (one past MaxBody included), goes byte for byte
// through decodeSlow, so odd input keeps encoding/json's status, code and
// message exactly. The body must be exactly one JSON value: trailing
// non-whitespace bytes (a concatenated second object, truncation garbage)
// fail the request instead of being silently ignored.
//
// The decode stage timer covers the body read and the parse.
func (s *Server) decodeWindows(w *responseRecorder, r *http.Request, sc *windowScratch, req *predictRequest) error {
	defer s.met.stage("decode")()
	// The unwrapped writer lets MaxBytesReader mark an overrun so net/http
	// closes the connection instead of draining the rest of the body.
	if err := s.decodeBody(http.MaxBytesReader(w.ResponseWriter, r.Body, s.opt.MaxBody), r.ContentLength, sc, req); err != nil {
		return err
	}
	if len(req.Windows) == 0 {
		return &httpError{http.StatusBadRequest, codeEmptyBatch, "no windows in request"}
	}
	if len(req.Windows) > s.opt.MaxBatch {
		return &httpError{http.StatusRequestEntityTooLarge, codeBatchTooLarge, fmt.Sprintf("batch of %d windows exceeds maximum %d", len(req.Windows), s.opt.MaxBatch)}
	}
	return nil
}

// decodeBody reads body, of declared length size (-1 when unknown), into sc
// and parses it into req: with scan when the read succeeded and scan
// accepts the bytes, with decodeSlow otherwise.
func (s *Server) decodeBody(body io.Reader, size int64, sc *windowScratch, req *predictRequest) error {
	var readErr error
	sc.body, readErr = readBody(sc.body[:0], body, size)
	if readErr != nil || !sc.scan(req) {
		return s.decodeSlow(sc.body, readErr, req)
	}
	return nil
}

// decodeSlow is encoding/json's decode of a windows body, the exact
// reference for every body scan does not accept. It replays the buffered
// bytes followed by the error that ended the read, so the decoder sees the
// stream a direct read of the request body would have shown it: a syntax
// error inside the first MaxBody bytes still takes precedence over the
// size error, as encoding/json scans what it holds before it reports a read
// error.
func (s *Server) decodeSlow(body []byte, readErr error, req *predictRequest) error {
	*req = predictRequest{}
	dec := json.NewDecoder(&replayReader{body: body, err: cmp.Or(readErr, io.EOF)})
	if err := dec.Decode(req); err != nil {
		return s.bodyError(err, &httpError{http.StatusBadRequest, codeInvalidJSON, "invalid JSON: " + err.Error()})
	}
	if _, err := dec.Token(); err != io.EOF {
		return s.bodyError(err, &httpError{http.StatusBadRequest, codeTrailingData, "trailing data after JSON body"})
	}
	return nil
}

// replayReader yields body, then err.
type replayReader struct {
	body []byte
	err  error
}

func (r *replayReader) Read(p []byte) (int, error) {
	if len(r.body) == 0 {
		return 0, r.err
	}
	n := copy(p, r.body)
	r.body = r.body[n:]
	return n, nil
}

// readBody appends everything r yields to buf and returns the first error
// other than io.EOF. It reserves a declared size up front, so the buffer
// fits the body instead of doubling past it, which on 64-window bodies
// raised the server's peak RSS by about 15%. The reservation is one byte
// over, so the final read sees io.EOF without growing, and at most
// maxPooledBody however large a length the client declares.
func readBody(buf []byte, r io.Reader, size int64) ([]byte, error) {
	if size > 0 {
		buf = slices.Grow(buf, int(min(size, maxPooledBody))+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, cap(buf)))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// windowScratch is one windows request's decode state: the body bytes,
// every number of the body in one flat slice, and the row and window views
// over it. predict and adapt borrow one from scratchPool and return it as
// they return, when encoding has finished reading it; stream/adapt
// allocates its own and never returns it, because the stream queue keeps
// the windows until the worker encodes them.
type windowScratch struct {
	body   []byte
	vals   []float64     // every number of the windows array, in body order
	rowEnd []int         // rowEnd[i] is the end of row i in vals
	winEnd []int         // winEnd[j] is the end of window j in rows
	rows   [][]float64   // row views into vals
	wins   [][][]float64 // window views into rows
}

var scratchPool = sync.Pool{New: func() any { return new(windowScratch) }}

// maxPooledBody caps the body buffer a pooled scratch keeps, so one
// outsized request does not pin its buffers for every later request, and
// the room readBody reserves for a declared body length.
const maxPooledBody = 4 << 20

func getScratch() *windowScratch { return scratchPool.Get().(*windowScratch) }

// putScratch returns sc to the pool. The caller must be done with every
// window decoded into it.
func putScratch(sc *windowScratch) {
	if cap(sc.body) <= maxPooledBody {
		scratchPool.Put(sc)
	}
}

// scan parses sc.body into req if the body is canonical, and reports
// whether it did; it never fails a request, it only declines one, leaving
// req untouched. Canonical means: optional whitespace, one non-empty
// object, optional whitespace, end of body. The object's keys are exactly
// "windows", "source_only" or "strategy", each at most once. "windows" is
// an array of arrays of arrays of numbers in the strict JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, each parsed with
// strconv.ParseFloat as encoding/json parses it (a range error declines);
// empty arrays are allowed at every level. "source_only" is true or false,
// and "strategy" a string of printable ASCII without a backslash.
//
//smore:hotpath
func (sc *windowScratch) scan(req *predictRequest) bool {
	b := sc.body
	sc.vals, sc.rowEnd, sc.winEnd = sc.vals[:0], sc.rowEnd[:0], sc.winEnd[:0]
	var out predictRequest
	var haveWindows, haveSource, haveStrategy bool
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	for {
		j, key, ok := scanString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch {
		case string(key) == "windows" && !haveWindows:
			haveWindows = true
			i, ok = sc.scanWindows(b, i)
		case string(key) == "source_only" && !haveSource:
			haveSource = true
			i, out.SourceOnly, ok = scanBool(b, i)
		case string(key) == "strategy" && !haveStrategy:
			haveStrategy = true
			var v []byte
			i, v, ok = scanString(b, i)
			out.Strategy = string(v)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		i = skipSpace(b, i)
		if i < len(b) && b[i] == '}' {
			break
		}
		if i == len(b) || b[i] != ',' {
			return false
		}
		i = skipSpace(b, i+1)
	}
	if skipSpace(b, i+1) != len(b) {
		return false
	}
	if haveWindows {
		out.Windows = sc.views()
	}
	*req = out
	return true
}

// scanWindows parses the windows array at b[i], appending its numbers to
// sc.vals and its row and window ends to sc.rowEnd and sc.winEnd. depth
// counts the open arrays: elements at depth 1 and 2 are arrays (windows,
// rows), elements at depth 3 are numbers.
func (sc *windowScratch) scanWindows(b []byte, i int) (int, bool) {
	depth := 0
	for {
		if depth < 3 {
			if i == len(b) || b[i] != '[' {
				return i, false
			}
			depth++
			i = skipSpace(b, i+1)
			if i == len(b) || b[i] != ']' {
				continue
			}
		} else {
			j, ok := sc.scanNumber(b, i)
			if !ok {
				return j, false
			}
			i = skipSpace(b, j)
		}
		// After an element or an empty array's '[': a comma opens the next
		// sibling, each ']' closes one array.
		for {
			if i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				break
			}
			if i == len(b) || b[i] != ']' {
				return i, false
			}
			switch depth {
			case 3:
				sc.rowEnd = append(sc.rowEnd, len(sc.vals))
			case 2:
				sc.winEnd = append(sc.winEnd, len(sc.rowEnd))
			case 1:
				return i + 1, true
			}
			depth--
			i = skipSpace(b, i+1)
		}
	}
}

// scanNumber parses the number at b[i] in the strict JSON grammar and
// appends its value to sc.vals.
func (sc *windowScratch) scanNumber(b []byte, i int) (int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return i, false
	}
	sc.vals = append(sc.vals, f)
	return i, true
}

// views lays the row and window views over sc.vals. It runs after the
// scan, because growing vals during it would move the array under earlier
// views. Each view's capacity ends at its length, so an append to one
// cannot overwrite its neighbour.
func (sc *windowScratch) views() [][][]float64 {
	sc.rows, sc.wins = sc.rows[:0], sc.wins[:0]
	lo := 0
	for _, hi := range sc.rowEnd {
		sc.rows = append(sc.rows, sc.vals[lo:hi:hi])
		lo = hi
	}
	lo = 0
	for _, hi := range sc.winEnd {
		sc.wins = append(sc.wins, sc.rows[lo:hi:hi])
		lo = hi
	}
	return sc.wins
}

// scanBool parses a true or false literal at b[i].
func scanBool(b []byte, i int) (int, bool, bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return i + 4, true, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return i + 5, false, true
	}
	return i, false, false
}

// scanString parses a string of printable ASCII without escapes at b[i]
// and returns its contents.
func scanString(b []byte, i int) (int, []byte, bool) {
	if i == len(b) || b[i] != '"' {
		return i, nil, false
	}
	j := i + 1
	for j < len(b) && b[j] != '"' {
		if b[j] < 0x20 || b[j] > 0x7e || b[j] == '\\' {
			return j, nil, false
		}
		j++
	}
	if j == len(b) {
		return j, nil, false
	}
	return j + 1, b[i+1 : j], true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
