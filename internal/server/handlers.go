package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"sync"

	"repro/internal/roadnet"
	"repro/internal/serial"
)

// Request-body and batch ceilings: a city-scale network serialises to a
// few MB, and a batch is one fleet's reporting tick, not a bulk export.
const (
	maxBodyBytes = 32 << 20
	maxBatch     = 10000
)

// Handler returns the service's HTTP routes:
//
//	POST /solve      solve (or fetch) the mechanism for a spec
//	POST /obfuscate  obfuscate a batch of locations under a spec
//	GET  /stats      counters + per-mechanism cache contents
//	GET  /healthz    readiness probe: 503 once shutdown begins, so load
//	                 balancers stop routing to a draining instance
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /obfuscate", s.handleObfuscate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.setLeaderHeader(w)
	var spec serial.SolveSpec
	if !s.decode(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e, cached, err := s.mechanismFor(r.Context(), &spec)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serial.SolveResponse{
		Key:     e.key,
		Cached:  cached,
		K:       e.mech.K(),
		ETDD:    e.etdd,
		Bound:   e.bound,
		SolveMs: float64(e.solveTime.Microseconds()) / 1000,
		Quality: e.tier,
	})
}

func (s *Server) handleObfuscate(w http.ResponseWriter, r *http.Request) {
	s.setLeaderHeader(w)
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return
	}
	b := obfuscateBufs.Get().(*obfuscateBuf)
	defer b.release()
	_, readErr := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	body := b.body.Bytes()

	// Form hit: the spec bytes are those of an earlier 200 for a key
	// still cached, so only the batch needs decoding. Anything else takes
	// the full decode, which answers exactly as encoding/json does.
	var form formID
	lo, hi, split := serial.SplitLocations(body)
	if split = split && readErr == nil; split {
		form = b.form(body, lo, hi)
		var req serial.ObfuscateRequest
		var err error
		if req.Locations, err = serial.DecodeLocations(body[lo:hi]); err == nil && len(req.Locations) > 0 && len(req.Locations) <= maxBatch {
			if e, ok := s.cache.getForm(form); ok {
				s.stats.hit()
				if e.tier != serial.QualityOptimal {
					s.stats.degraded()
				}
				s.serveBatch(w, r, b, e, true, req.Locations)
				return
			}
		}
	}
	if e := s.obfuscateDecoded(w, r, b, readErr); e != nil && split {
		s.cache.setForm(e.key, form)
	}
}

// obfuscateDecoded is the full /obfuscate path over the buffered body:
// decode it with encoding/json, validate, resolve the mechanism (solving
// on a miss) and serve. It returns the entry it answered 200 from, or
// nil.
func (s *Server) obfuscateDecoded(w http.ResponseWriter, r *http.Request, b *obfuscateBuf, readErr error) *entry {
	var rd io.Reader = bytes.NewReader(b.body.Bytes())
	if readErr != nil {
		// Replay the live stream: the bytes read, then the read's error.
		rd = io.MultiReader(rd, errReader{readErr})
	}
	var req serial.ObfuscateRequest
	if !decodeJSON(w, rd, &req) {
		return nil
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil
	}
	if len(req.Locations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("server: empty location batch"))
		return nil
	}
	if len(req.Locations) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch of %d exceeds cap %d", len(req.Locations), maxBatch))
		return nil
	}
	e, cached, err := s.mechanismFor(r.Context(), &req.SolveSpec)
	if err != nil {
		s.writeServiceError(w, err)
		return nil
	}
	if !s.serveBatch(w, r, b, e, cached, req.Locations) {
		return nil
	}
	return e
}

// serveBatch samples a batch under e and answers 200 with the
// obfuscated locations, or answers the error that stopped it. It reports
// whether it answered 200.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, b *obfuscateBuf, e *entry, cached bool, locs []serial.Loc) bool {
	// Sampling runs on the serve tier, acquired only after the mechanism
	// is in hand: a request that just paid for (or queued on) a cold
	// solve holds no serve slot during that wait, and a cached request
	// never competes with the solve pool at all. One slot covers the
	// whole batch.
	if err := s.serveGate.acquire(r.Context()); err != nil {
		s.writeServiceError(w, err)
		return false
	}
	defer s.serveGate.release()
	g := e.prob.Part.G
	out := b.out[:0]
	for i, loc := range locs {
		truth, err := toLocation(g, loc)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("location %d: %w", i, err))
			return false
		}
		obf := e.sample(truth)
		out = append(out, serial.Loc{Road: int(obf.Edge), FromStart: obf.FromStart(g)})
	}
	b.out = out
	resp, err := serial.AppendObfuscateResponse(b.resp[:0], &serial.ObfuscateResponse{
		Key:       e.key,
		Cached:    cached,
		Quality:   e.tier,
		Locations: out,
	})
	b.resp = resp
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, _ = w.Write(resp)
	}
	return true
}

// jsonContentType is the Content-Type header value of the /obfuscate
// answer, shared so setting it allocates nothing. Handlers never modify
// header values in place.
var jsonContentType = []string{"application/json"}

// obfuscateBuf is the pooled scratch of one /obfuscate request: the
// body, the form hasher, the sampled batch and the response bytes.
type obfuscateBuf struct {
	body bytes.Buffer
	h    hash.Hash
	sum  []byte
	cut  [8]byte
	out  []serial.Loc
	resp []byte
}

// maxPooledBody caps the body buffer a pooled obfuscateBuf keeps; a
// larger one (a city-scale network) is left to the collector.
const maxPooledBody = 1 << 20

var obfuscateBufs = sync.Pool{New: func() any { return &obfuscateBuf{h: sha256.New()} }}

func (b *obfuscateBuf) release() {
	if b.body.Cap() > maxPooledBody {
		return
	}
	b.body.Reset()
	obfuscateBufs.Put(b)
}

// form returns the formID of body with its location batch body[lo:hi]
// cut out.
func (b *obfuscateBuf) form(body []byte, lo, hi int) formID {
	binary.BigEndian.PutUint64(b.cut[:], uint64(lo))
	b.h.Reset()
	b.h.Write(b.cut[:])
	b.h.Write(body[:lo])
	b.h.Write(body[hi:])
	b.sum = b.h.Sum(b.sum[:0])
	return formID(b.sum)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// toLocation validates a wire location against the graph and converts it
// to the internal convention. The error messages deliberately carry no
// value derived from the location — they are echoed verbatim into HTTP
// error responses, and a raw road index or offset (or even the selected
// road's length) would leak the true position the Geo-I mechanism
// exists to hide. privtaint enforces this.
func toLocation(g *roadnet.Graph, l serial.Loc) (roadnet.Location, error) {
	if l.Road < 0 || l.Road >= g.NumEdges() {
		return roadnet.Location{}, fmt.Errorf("road index out of range [0, %d)", g.NumEdges())
	}
	w := g.Edge(roadnet.EdgeID(l.Road)).Weight
	if !(l.FromStart >= 0) || l.FromStart > w {
		return roadnet.Location{}, errors.New("from_start outside road length")
	}
	return roadnet.LocationFromStart(g, roadnet.EdgeID(l.Road), l.FromStart), nil
}

// decode reads a bounded JSON body into v, answering 4xx on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return false
	}
	return decodeJSON(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeJSON decodes the first JSON value of rd into v, answering 413
// past the body limit and 400 on any other failure.
func decodeJSON(w http.ResponseWriter, rd io.Reader, v interface{}) bool {
	if err := json.NewDecoder(rd).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
		}
		return false
	}
	return true
}

// writeServiceError maps mechanismFor/sample failures to statuses:
// backpressure → 429, shutdown → 503, solve-wait or request deadline →
// 504, anything else (a solver rejection of a pathological instance) →
// 422.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, serial.ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
