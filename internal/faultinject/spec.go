package faultinject

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ParseSpec parses a comma-separated fault spec into per-site Faults.
// Each entry is
//
//	site=action[;opt=val...]
//
// where action is one of
//
//	err[:message]   return an error (default message "faultinject: <site>")
//	enospc          return an error wrapping syscall.ENOSPC (errors.Is-able)
//	delay:<dur>     sleep for a time.ParseDuration duration, then return nil
//	panic:<message> panic with the message
//	off             disarm the site (useful over the HTTP control surface)
//
// and the only option is times=N, bounding how often the fault fires.
// An "off" entry maps to a nil Fault pointer in the result.
func ParseSpec(spec string) (map[string]*Fault, error) {
	out := make(map[string]*Fault)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: bad spec entry %q: want site=action", entry)
		}
		parts := strings.Split(rest, ";")
		action, arg, _ := strings.Cut(strings.TrimSpace(parts[0]), ":")
		var f *Fault
		switch action {
		case "err":
			msg := arg
			if msg == "" {
				msg = "faultinject: " + site
			}
			f = &Fault{Err: fmt.Errorf("%s", msg)}
		case "enospc":
			f = &Fault{Err: fmt.Errorf("faultinject: %s: %w", site, syscall.ENOSPC)}
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad delay in %q: %v", entry, err)
			}
			f = &Fault{Delay: d}
		case "panic":
			msg := arg
			if msg == "" {
				msg = "faultinject: " + site
			}
			f = &Fault{Panic: msg}
		case "off":
			f = nil
		default:
			return nil, fmt.Errorf("faultinject: unknown action %q in %q", action, entry)
		}
		for _, opt := range parts[1:] {
			k, v, _ := strings.Cut(strings.TrimSpace(opt), "=")
			switch k {
			case "times":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: bad times in %q", entry)
				}
				if f != nil {
					f.Times = n
				}
			default:
				return nil, fmt.Errorf("faultinject: unknown option %q in %q", k, entry)
			}
		}
		out[site] = f
	}
	return out, nil
}

// ArmSpec parses spec and arms (or, for "off" entries, clears) each
// site. On a parse error nothing is armed.
func ArmSpec(spec string) error {
	faults, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	for site, f := range faults {
		if f == nil {
			Clear(site)
		} else {
			Set(site, *f)
		}
	}
	return nil
}

// Sites returns the currently armed site names, sorted.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Handler returns an HTTP control surface for the registry, so a chaos
// harness can re-arm faults in a running process between phases:
//
//	GET    list armed sites as a JSON array
//	POST   arm the spec in the request body (ParseSpec grammar)
//	DELETE reset every site
//
// Mount it only behind an explicit opt-in (vlpserved requires
// VLP_FAULT_CTL=1): it exists to break the process that serves it.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(Sites())
		case http.MethodPost:
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := ArmSpec(string(body)); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			Reset()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
