// Clean package: every true location passes through Mechanism.Sample
// before any sink, including along the same interprocedural chains the
// violating package uses — the analyzer must stay silent.
package privtaint_clean

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

// handle samples before handing the value down the same emit chain.
func handle(req ObfuscateRequest, m *Mechanism, enc *Encoder) {
	for _, loc := range req.Locations {
		emit(enc, m.Sample(loc))
	}
}

func emit(enc *Encoder, l Loc) {
	_ = enc.Encode(l)
}

// Batch metadata derived by len() is not location data.
func count(req ObfuscateRequest, enc *Encoder) {
	_ = enc.Encode(len(req.Locations))
}

// The public spec fields are not sources.
func spec(req ObfuscateRequest, enc *Encoder) {
	_ = enc.Encode(req.Epsilon)
}

type ResponseWriter interface {
	Write([]byte) (int, error)
}

type ObfuscateResponse struct {
	Key       string
	Locations []Loc
}

func AppendObfuscateResponse(dst []byte, r *ObfuscateResponse) ([]byte, error) {
	return append(dst, byte(len(r.Locations))), nil
}

// serveSampled encodes only sampled locations into the response.
func serveSampled(w ResponseWriter, req ObfuscateRequest, m *Mechanism) {
	out := make([]Loc, 0, len(req.Locations))
	for _, loc := range req.Locations {
		out = append(out, m.Sample(loc))
	}
	respond(w, "k", out)
}

func respond(w ResponseWriter, key string, out []Loc) {
	buf, err := AppendObfuscateResponse(nil, &ObfuscateResponse{Key: key, Locations: out})
	if err == nil {
		_, _ = w.Write(buf)
	}
}
