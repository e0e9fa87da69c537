package ishare

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"fgcs/internal/otrace"
)

// route is one served RPC: a row of its server's route table (gatewayRoutes,
// fedRoutes). Rows are built by on, which is where an RPC's message type,
// payload type and serving method are declared, once.
type route[S any] struct {
	typ   string
	serve func(s S, ctx context.Context, req Request) (interface{}, error)
}

// on declares one row: requests of type typ decode into Req and are served by
// fn. A payload that does not decode is refused as "malformed <what> payload";
// where optional is set a request without a payload is the zero Req. This is
// the one place a request payload is decoded.
//
// The row keeps its Req values in a pool, and for a request Server.respond
// serves (req.pooled) it returns fn's answer in a pooled respBox, which
// respond encodes and gives back: a served request allocates neither. A
// direct Handler call gets fn's typed answer.
func on[S, Req, Resp any](typ, what string, optional bool, fn func(S, context.Context, Req) (Resp, error)) route[S] {
	reqs := &sync.Pool{New: func() interface{} { return new(Req) }}
	boxes := &sync.Pool{}
	boxes.New = func() interface{} { return &respBox[Resp]{pool: boxes} }
	return route[S]{typ: typ, serve: func(s S, ctx context.Context, r Request) (interface{}, error) {
		req := reqs.Get().(*Req)
		var zero Req
		if r.Payload != nil || !optional {
			if err := decodeJSON(r.Payload, req); err != nil {
				*req = zero // a failed decode may have set some fields
				reqs.Put(req)
				return nil, fmt.Errorf("malformed %s payload", what)
			}
		}
		resp, err := fn(s, ctx, *req)
		*req = zero // the next decode would write into slices and maps fn kept
		reqs.Put(req)
		if !r.pooled {
			return resp, err
		}
		if err != nil {
			return nil, err
		}
		b := boxes.Get().(*respBox[Resp])
		b.v = resp
		return b, nil
	}}
}

// pooledResp is a response payload that Server.respond encodes and then
// releases, rather than encoding an interface box the GC must collect.
type pooledResp interface {
	appendTo(buf []byte) ([]byte, error)
	release()
}

// respBox is a route row's pooled pooledResp.
type respBox[Resp any] struct {
	v    Resp
	pool *sync.Pool
}

// appendTo appends v's JSON to buf; a nil interface v is no payload at all,
// as a nil payload is to Server.respond.
func (b *respBox[Resp]) appendTo(buf []byte) ([]byte, error) {
	if p, ok := any(&b.v).(*interface{}); ok && *p == nil {
		return nil, nil
	}
	return appendJSON(buf, &b.v)
}

func (b *respBox[Resp]) release() {
	var zero Resp
	b.v = zero
	b.pool.Put(b)
}

// serveRoutes is the serving shell of a host gateway (name "gateway") and a
// federation peer (name "fed"): every request runs under a <name>.dispatch
// server span continuing the trace named by the request's trace link (or a
// fresh trace on a sampled untraced request), tagged idKey=id and rpc=<type>;
// it is served by its row of routes, or refused when no row has its type; and
// it is timed and counted by request type in the node's metrics (o may be
// nil). tracer is read per request, so a tracer installed after the handler
// was built still takes effect.
func serveRoutes[S any](s S, routes []route[S], name, idKey, id string, tracer func() *otrace.Tracer, o *NodeObs) Handler {
	spanName := name + ".dispatch"
	return func(req Request) (payload interface{}, err error) {
		start := time.Now()
		ctx, span := tracer().StartRemote(context.Background(), req.link, spanName)
		if span != nil {
			span.SetAttr(otrace.String(idKey, id), otrace.String("rpc", req.Type))
		}
		i := 0
		for i < len(routes) && routes[i].typ != req.Type {
			i++
		}
		if i < len(routes) {
			payload, err = routes[i].serve(s, ctx, req)
		} else {
			err = fmt.Errorf("%s: unknown request type %q", name, req.Type)
		}
		span.SetError(err)
		span.End()
		o.observeRPC(req.Type, err, time.Since(start))
		return payload, err
	}
}

// listenRoutes starts a protocol server for h on addr, counting connections
// and sheds in the node's serving-path metrics unless cfg brings its own.
func listenRoutes(addr string, h Handler, cfg ServerConfig, o *NodeObs) (*Server, error) {
	if cfg.Metrics == nil && o != nil {
		cfg.Metrics = o.Server
	}
	return NewServerConfig(addr, h, cfg)
}

// gatewayRPCTypes are the request types the two route tables serve, each
// once, in table order. NewNodeObs registers a request counter, an error
// counter and a latency histogram for every one up front, so the serving path
// never formats a metric name; a type no row serves counts as rpcOther.
var gatewayRPCTypes = func() (types []string) {
	for _, r := range gatewayRoutes {
		types = append(types, r.typ)
	}
	for _, r := range fedRoutes {
		if !slices.Contains(types, r.typ) {
			types = append(types, r.typ)
		}
	}
	return types
}()

// rpcOther is the type label of a served request no route table knows.
const rpcOther = "other"
