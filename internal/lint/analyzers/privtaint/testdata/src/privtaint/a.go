// Violating package: true locations reach sinks without passing
// through the mechanism. The source and the sink live in different
// functions, so every finding here requires interprocedural summaries.
package privtaint

import "strconv"

type Loc struct {
	Road      int
	FromStart float64
}

type ObfuscateRequest struct {
	Epsilon   float64
	Locations []Loc
}

type Mechanism struct{ k int }

func (m *Mechanism) Sample(l Loc) Loc { return Loc{Road: m.k} }

type Encoder struct{}

func (e *Encoder) Encode(v interface{}) error { return nil }

// handle reads the source; the sink is two calls away (emit → relay).
func handle(req ObfuscateRequest, enc *Encoder) {
	for _, loc := range req.Locations {
		emit(enc, loc) // want `true location reaches a wire/store encoder via call to emit`
	}
}

func emit(enc *Encoder, l Loc) {
	relay(enc, l)
}

func relay(enc *Encoder, l Loc) {
	_ = enc.Encode(l)
}

// first returns a tainted value; the caller sinks it directly.
func first(req ObfuscateRequest) Loc {
	return req.Locations[0]
}

func dump(req ObfuscateRequest, enc *Encoder) {
	l := first(req)
	_ = enc.Encode(l) // want `true location reaches a wire/store encoder without Geo-I obfuscation`
}

type ResponseWriter interface {
	Write([]byte) (int, error)
}

type ObfuscateResponse struct {
	Key       string
	Locations []Loc
}

// AppendObfuscateResponse mirrors serial's hand-rolled /obfuscate
// encoder: it grows its dst parameter in place, a flow the engine does
// not follow, so only its sink role catches a true location handed to
// it on the way to the response.
func AppendObfuscateResponse(dst []byte, r *ObfuscateResponse) ([]byte, error) {
	for _, l := range r.Locations {
		dst = strconv.AppendInt(dst, int64(l.Road), 10)
		dst = strconv.AppendFloat(dst, l.FromStart, 'g', -1, 64)
	}
	return dst, nil
}

// serveUnsampled answers with the decoded batch itself: the encoder and
// the ResponseWriter.Write sit one call away.
func serveUnsampled(w ResponseWriter, req ObfuscateRequest) {
	respond(w, "k", req.Locations) // want `true location reaches a wire encoder via call to respond`
}

func respond(w ResponseWriter, key string, out []Loc) {
	buf, err := AppendObfuscateResponse(nil, &ObfuscateResponse{Key: key, Locations: out})
	if err == nil {
		_, _ = w.Write(buf)
	}
}
