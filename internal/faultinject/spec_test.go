package faultinject

import (
	"errors"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseSpecGrammar(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, faults map[string]*Fault)
	}{
		{spec: "", check: func(t *testing.T, f map[string]*Fault) {
			if len(f) != 0 {
				t.Fatalf("empty spec parsed to %v", f)
			}
		}},
		{spec: "store/write=err", check: func(t *testing.T, f map[string]*Fault) {
			fa := f["store/write"]
			if fa == nil || fa.Err == nil || fa.Times != 0 {
				t.Fatalf("got %+v", fa)
			}
		}},
		{spec: "store/write=err:disk on fire;times=3", check: func(t *testing.T, f map[string]*Fault) {
			fa := f["store/write"]
			if fa == nil || fa.Err == nil || fa.Err.Error() != "disk on fire" || fa.Times != 3 {
				t.Fatalf("got %+v", fa)
			}
		}},
		{spec: "store/write=enospc", check: func(t *testing.T, f map[string]*Fault) {
			fa := f["store/write"]
			if fa == nil || !errors.Is(fa.Err, syscall.ENOSPC) {
				t.Fatalf("enospc action not errors.Is(ENOSPC): %+v", fa)
			}
		}},
		{spec: "store/fsync=delay:150ms", check: func(t *testing.T, f map[string]*Fault) {
			fa := f["store/fsync"]
			if fa == nil || fa.Delay != 150*time.Millisecond {
				t.Fatalf("got %+v", fa)
			}
		}},
		{spec: "core/cg=panic:numeric blowup", check: func(t *testing.T, f map[string]*Fault) {
			fa := f["core/cg"]
			if fa == nil || fa.Panic != "numeric blowup" {
				t.Fatalf("got %+v", fa)
			}
		}},
		{spec: "a=err, b=enospc ,c=off", check: func(t *testing.T, f map[string]*Fault) {
			if len(f) != 3 || f["a"] == nil || f["b"] == nil || f["c"] != nil {
				t.Fatalf("got %v", f)
			}
		}},
		{spec: "noequals", wantErr: true},
		{spec: "a=frobnicate", wantErr: true},
		{spec: "a=delay:notadur", wantErr: true},
		{spec: "a=err;times=0", wantErr: true},
		{spec: "a=err;bogus=1", wantErr: true},
	}
	for _, tc := range cases {
		faults, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %v", tc.spec, faults)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		tc.check(t, faults)
	}
}

// TestParseSpecEdgeCases pins the grammar's corners: empty and
// whitespace-only specs, duplicate sites (last entry wins, matching
// "later flags override earlier" CLI convention), the times bound,
// unknown actions, and exactly where whitespace is forgiven.
func TestParseSpecEdgeCases(t *testing.T) {
	t.Run("empty and blank specs arm nothing", func(t *testing.T) {
		for _, spec := range []string{"", "   ", ",", " , , ", ",,,"} {
			f, err := ParseSpec(spec)
			if err != nil || len(f) != 0 {
				t.Errorf("ParseSpec(%q) = (%v, %v), want empty map", spec, f, err)
			}
		}
	})

	t.Run("duplicate site last wins", func(t *testing.T) {
		f, err := ParseSpec("a=err:first,a=err:second")
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != 1 || f["a"] == nil || f["a"].Err.Error() != "second" {
			t.Fatalf("got %+v, want the later entry to win", f["a"])
		}
		// An off entry overrides an earlier arm of the same site.
		f, err = ParseSpec("a=err,a=off")
		if err != nil {
			t.Fatal(err)
		}
		if fa, present := f["a"]; !present || fa != nil {
			t.Fatalf("a=err,a=off gave (%v, %v), want an explicit nil entry", fa, present)
		}
	})

	t.Run("times bound", func(t *testing.T) {
		for _, spec := range []string{"a=err;times=0", "a=err;times=-2", "a=err;times=two", "a=err;times="} {
			if _, err := ParseSpec(spec); err == nil {
				t.Errorf("ParseSpec(%q) accepted a bad times bound", spec)
			}
		}
		// times on an off entry is tolerated and discarded: there is no
		// fault to bound.
		f, err := ParseSpec("a=off;times=3")
		if err != nil || f["a"] != nil {
			t.Fatalf("a=off;times=3 gave (%v, %v)", f["a"], err)
		}
	})

	t.Run("unknown action names the action", func(t *testing.T) {
		_, err := ParseSpec("a=nuke")
		if err == nil || !strings.Contains(err.Error(), `unknown action "nuke"`) {
			t.Fatalf("ParseSpec(a=nuke) error = %v, want the action named", err)
		}
	})

	t.Run("whitespace forgiven around entries, sites and actions", func(t *testing.T) {
		f, err := ParseSpec("  store/w  =  err  ,\tb = delay:5ms ;times=2")
		if err != nil {
			t.Fatal(err)
		}
		if f["store/w"] == nil || f["store/w"].Err == nil {
			t.Fatalf("padded site/action not parsed: %v", f)
		}
		if fb := f["b"]; fb == nil || fb.Delay != 5*time.Millisecond || fb.Times != 2 {
			t.Fatalf("padded entry with option parsed to %+v", fb)
		}
	})

	t.Run("whitespace inside action args is preserved", func(t *testing.T) {
		// The arg after ":" is payload, not grammar: "err: boom" keeps
		// the leading space in the error message.
		f, err := ParseSpec("a=err: boom")
		if err != nil {
			t.Fatal(err)
		}
		if got := f["a"].Err.Error(); got != " boom" {
			t.Fatalf("arg %q, want %q (payload untouched)", got, " boom")
		}
		// But space before the ":" makes the action itself unrecognised:
		// grammar tokens do not absorb inner whitespace.
		if _, err := ParseSpec("a=err : boom"); err == nil {
			t.Fatal(`"err : boom" accepted; space glued to the action token should be rejected`)
		}
	})
}

func TestArmSpec(t *testing.T) {
	defer Reset()
	if err := ArmSpec("x=err:boom;times=1"); err != nil {
		t.Fatal(err)
	}
	if err := At("x"); err == nil || err.Error() != "boom" {
		t.Fatalf("armed site returned %v", err)
	}
	if err := At("x"); err != nil {
		t.Fatalf("times=1 fault fired twice: %v", err)
	}

	// "off" entries clear a previously armed site.
	if err := ArmSpec("y=err"); err != nil {
		t.Fatal(err)
	}
	if err := ArmSpec("y=off"); err != nil {
		t.Fatal(err)
	}
	if err := At("y"); err != nil {
		t.Fatalf("off entry left site armed: %v", err)
	}

	// A parse error arms nothing.
	if err := ArmSpec("z=err,bad entry"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := At("z"); err != nil {
		t.Fatalf("failed ArmSpec partially armed: %v", err)
	}
}

func TestHandlerControlSurface(t *testing.T) {
	defer Reset()
	h := Handler()

	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/debug/faults", strings.NewReader(body)))
		return w
	}
	if w := post("h1=err:via http,h2=delay:1ms"); w.Code != 204 {
		t.Fatalf("POST: %d %s", w.Code, w.Body)
	}
	if err := At("h1"); err == nil || err.Error() != "via http" {
		t.Fatalf("POSTed site returned %v", err)
	}
	if w := post("garbage"); w.Code != 400 {
		t.Fatalf("bad spec POST: %d", w.Code)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/faults", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "h1") || !strings.Contains(w.Body.String(), "h2") {
		t.Fatalf("GET: %d %s", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("DELETE", "/debug/faults", nil))
	if w.Code != 204 {
		t.Fatalf("DELETE: %d", w.Code)
	}
	if err := At("h1"); err != nil {
		t.Fatalf("DELETE left site armed: %v", err)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("PUT", "/debug/faults", nil))
	if w.Code != 405 {
		t.Fatalf("PUT: %d", w.Code)
	}
}
