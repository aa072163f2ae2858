package serial

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/roadnet"
)

// wireRequest renders a small /obfuscate body the way clients do
// (json.Marshal of an ObfuscateRequest).
func wireRequest(tb testing.TB, rng *rand.Rand, n int) ([]byte, []Loc) {
	tb.Helper()
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5})
	req := ObfuscateRequest{SolveSpec: SolveSpec{Network: FromGraph(g), Delta: 0.2, Epsilon: 5, Prior: []float64{0.5, 0.5}}}
	for i := 0; i < n; i++ {
		road := rng.Intn(g.NumEdges())
		req.Locations = append(req.Locations, Loc{Road: road, FromStart: rng.Float64() * g.Edge(roadnet.EdgeID(road)).Weight})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return body, req.Locations
}

func TestSplitLocations(t *testing.T) {
	for _, tc := range []struct {
		body, span string // span "" means not ok
	}{
		{`{"delta":1,"locations":[1,2]}`, `[1,2]`},
		{` {"locations" : null , "epsilon":[{"locations":0}]} `, `null`},
		{`{"a":"}\"","locations":{"x":"]"},"b":[[]]}`, `{"x":"]"}`},
		{`{"locations":7}`, `7`},
		{`{"delta":1}`, ``},
		{`{}`, ``},
		{`[{"locations":[]}]`, ``},
		{`{"locations":[]} x`, ``},
		{`{"locations":[]}{}`, ``},
		{`{"locations":[],"locations":[]}`, ``},
		{`{"locations":[],"Locations":[]}`, ``},
		{`{"LOCATIONS":[]}`, ``},
		{`{"locationſ":[],"locations":[]}`, ``}, // ſ folds to s
		{`{"loc\u0061tions":[]}`, ``},
		{`{"a\"":1,"locations":[]}`, ``},
		{`{"locations":[}`, ``},
		{`{"locations":"abc`, ``},
		{`{"locations":[]`, ``},
	} {
		lo, hi, ok := SplitLocations([]byte(tc.body))
		got := ""
		if ok {
			got = tc.body[lo:hi]
		}
		if ok != (tc.span != "") || got != tc.span {
			t.Errorf("SplitLocations(%s) = %q, %v; want %q", tc.body, got, ok, tc.span)
		}
	}
}

// TestDecodeLocationsDirect checks that the json.Marshal form of real
// batches, including exponent-form and negative numbers, takes the
// direct parser and agrees with json.Unmarshal bit for bit.
func TestDecodeLocationsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, locs := wireRequest(t, rng, 64)
	locs = append(locs, Loc{Road: -1, FromStart: 1e-9}, Loc{Road: 0, FromStart: math.Copysign(0, -1)},
		Loc{Road: math.MaxInt64, FromStart: 1e21}, Loc{Road: math.MinInt64, FromStart: -5e-324})
	data, err := json.Marshal(locs)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parseLocations(data)
	if !ok {
		t.Fatalf("json.Marshal output missed the direct parser: %s", data)
	}
	checkSameLocs(t, got, locs)
	var want []Loc
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	checkSameLocs(t, got, want)
}

func checkSameLocs(t *testing.T, got, want []Loc) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("decoded %d locations (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if got[i].Road != want[i].Road || math.Float64bits(got[i].FromStart) != math.Float64bits(want[i].FromStart) {
			t.Fatalf("location %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzObfuscateWire checks the /obfuscate hot-path codec against
// encoding/json, its oracle:
//
//   - whenever SplitLocations accepts a body encoding/json accepts, the
//     span is exactly the json.RawMessage of the "locations" member;
//   - splicing any other valid value into that span never changes the
//     decoded SolveSpec, and the whole body then decodes to that spec
//     plus DecodeLocations(value);
//   - DecodeLocations matches json.Unmarshal in error-vs-success and in
//     float bits, and AppendObfuscateResponse matches json.Encoder
//     byte for byte.
func FuzzObfuscateWire(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	body, _ := wireRequest(f, rng, 3)
	batch, _ := json.Marshal([]Loc{{Road: 2, FromStart: 1.5e-7}, {Road: -0, FromStart: 1e22}})
	indented := bytes.ReplaceAll(body, []byte(","), []byte(",\n  "))
	for _, seed := range []struct {
		body, value []byte
		key         string
	}{
		{body, batch, "3f2a"},
		{indented, []byte(`[{"road":01,"from_start":0}]`), "<&>"},
		{bytes.Replace(body, []byte(`"locations"`), []byte(`"Locations"`), 1), []byte(`null`), ""},
		{append([]byte(`{"locations":[],`), body[1:]...), []byte(`[]`), "\u2028\xff"},
		{body, []byte(`[{"road":1,"from_start":1e400}]`), "k"},
		{body, []byte(`[{"road":9223372036854775808,"from_start":0}]`), "k"},
		{body, []byte(`[{"road":-0,"from_start":-0},{"road":1,"from_start":2,"x":3}]`), "k"},
		{body, []byte(` [{"Road":1, "FROM_START":0.5}] `), "\"\\\n"},
		{body, []byte(`[{"road":1,"from_start":"1"}]`), "k"},
		{[]byte(`{"network":null,"locations":[],"delta":"x"}`), []byte(`[{"road":1.0,"from_start":0}]`), "k"},
	} {
		f.Add(seed.body, seed.value, seed.key, "optimal", true)
	}

	f.Fuzz(func(t *testing.T, body, value []byte, key, quality string, cached bool) {
		checkSplit(t, body, value)
		locs, err := DecodeLocations(value)
		var want []Loc
		wantErr := json.Unmarshal(value, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeLocations(%q) error %v, json.Unmarshal error %v", value, err, wantErr)
		}
		if err != nil {
			return
		}
		checkSameLocs(t, locs, want)

		resp := &ObfuscateResponse{Key: key, Cached: cached, Quality: quality, Locations: locs}
		var enc bytes.Buffer
		encErr := json.NewEncoder(&enc).Encode(resp)
		got, appendErr := AppendObfuscateResponse([]byte("prefix"), resp)
		if (encErr == nil) != (appendErr == nil) {
			t.Fatalf("encoder error %v, AppendObfuscateResponse error %v", encErr, appendErr)
		}
		if encErr == nil && !bytes.Equal(got[len("prefix"):], enc.Bytes()) {
			t.Fatalf("AppendObfuscateResponse wrote\n%s\njson.Encoder wrote\n%s", got, enc.Bytes())
		}
	})
}

// checkSplit runs the splitter properties of FuzzObfuscateWire.
func checkSplit(t *testing.T, body, value []byte) {
	t.Helper()
	lo, hi, ok := SplitLocations(body)
	if !ok || !json.Valid(body) {
		return
	}
	var raw struct {
		Locations json.RawMessage `json:"locations"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("valid body split but not decodable: %v", err)
	}
	if !bytes.Equal(raw.Locations, body[lo:hi]) {
		t.Fatalf("span %q, json.RawMessage %q", body[lo:hi], raw.Locations)
	}
	if !json.Valid(value) {
		return
	}
	spliced := append(append(append([]byte{}, body[:lo]...), value...), body[hi:]...)
	var before, after SolveSpec
	errBefore, errAfter := json.Unmarshal(body, &before), json.Unmarshal(spliced, &after)
	if (errBefore == nil) != (errAfter == nil) || !reflect.DeepEqual(before, after) {
		t.Fatalf("splicing %q changed the spec: %+v (%v) → %+v (%v)", value, before, errBefore, after, errAfter)
	}
	var req ObfuscateRequest
	reqErr := json.Unmarshal(spliced, &req)
	locs, locErr := DecodeLocations(value)
	if (reqErr == nil) != (errAfter == nil && locErr == nil) {
		t.Fatalf("request decode error %v; spec error %v, locations error %v", reqErr, errAfter, locErr)
	}
	if reqErr == nil {
		if !reflect.DeepEqual(req.SolveSpec, after) {
			t.Fatalf("request spec %+v, spec decode %+v", req.SolveSpec, after)
		}
		checkSameLocs(t, locs, req.Locations)
	}
}

// TestAppendObfuscateResponseEscapes pins the string and float cases
// where encoding/json's output is least obvious.
func TestAppendObfuscateResponseEscapes(t *testing.T) {
	resp := &ObfuscateResponse{
		Key:       "a\"\\<>&\n\x01\u2028\u2029\xffé",
		Quality:   QualityIncumbent,
		Locations: []Loc{{Road: 1, FromStart: 1e-7}, {Road: -2, FromStart: 1e21}, {Road: 3, FromStart: 123456789.125}, {Road: 4, FromStart: math.Copysign(0, -1)}},
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	got, err := AppendObfuscateResponse(nil, resp)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("got %s (%v), want %s", got, err, want.Bytes())
	}
	resp.Locations = nil
	want.Reset()
	_ = json.NewEncoder(&want).Encode(resp)
	if got, _ := AppendObfuscateResponse(nil, resp); !bytes.Equal(got, want.Bytes()) || !strings.HasSuffix(string(got), `"locations":null}`+"\n") {
		t.Fatalf("nil batch: got %s, want %s", got, want.Bytes())
	}
	resp.Locations = []Loc{{FromStart: math.NaN()}}
	if got, err := AppendObfuscateResponse([]byte("x"), resp); err == nil || string(got) != "x" {
		t.Fatalf("NaN: got %q, %v; want the input back and an error", got, err)
	}
}
