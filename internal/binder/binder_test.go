package binder

import (
	"testing"

	"repro/internal/javalang"
)

func echoHandler(code int, data any) (any, *javalang.Throwable) {
	return data, nil
}

func TestTransactSuccess(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.echo", echoHandler)
	if !r.Lookup("svc.echo") {
		t.Fatal("Lookup false for a published name")
	}
	reply, thr := r.Transact("svc.echo", 1, "hello")
	if thr != nil {
		t.Fatalf("Transact error: %v", thr)
	}
	if reply != "hello" {
		t.Fatalf("reply = %v", reply)
	}
}

func TestTransactUnknownEndpoint(t *testing.T) {
	r := NewRouter()
	_, thr := r.Transact("svc.missing", 1, nil)
	if thr == nil || thr.Class != javalang.ClassDeadObject {
		t.Fatalf("expected DeadObjectException, got %v", thr)
	}
	if r.Lookup("svc.missing") {
		t.Fatal("Lookup true for an unpublished name")
	}
}

func TestHandlerThrowablePropagates(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.bad", func(code int, data any) (any, *javalang.Throwable) {
		return nil, javalang.New(javalang.ClassIllegalState, "not ready")
	})
	_, thr := r.Transact("svc.bad", 1, nil)
	if thr == nil || thr.Class != javalang.ClassIllegalState {
		t.Fatalf("got %v", thr)
	}
}

func TestRepublishReplacesEndpoint(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.x", func(int, any) (any, *javalang.Throwable) { return "old", nil })
	r.Publish("svc.x", func(int, any) (any, *javalang.Throwable) { return "new", nil })
	reply, thr := r.Transact("svc.x", 0, nil)
	if thr != nil || reply != "new" {
		t.Fatalf("reply = %v thr = %v", reply, thr)
	}
}

func TestFaultFailsTransaction(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.echo", echoHandler)
	r.SetFault(func(string) *javalang.Throwable {
		return javalang.New(javalang.ClassRemote, "injected")
	})
	if _, thr := r.Transact("svc.echo", 1, nil); thr == nil || thr.Class != javalang.ClassRemote {
		t.Fatalf("transact in a fault window: %v", thr)
	}
	r.SetFault(nil)
	if reply, thr := r.Transact("svc.echo", 1, "ok"); thr != nil || reply != "ok" {
		t.Fatalf("transact after the window = %v, %v", reply, thr)
	}
}
