package funcptr

import (
	"fmt"
	"testing"

	"specslice/internal/lang"
)

// shadowSrc mixes a fnptr global, a fnptr local, a fnptr parameter, and a
// plain-int local that shadows the fnptr global. Points-to keys resolve a
// name to the fnptr global whenever one exists, so shadow's int gp shares
// the global's key (use/v inherits {f}).
const shadowSrc = `
int f(int a) { return a * 2; }
int h(int a) { return a + 1; }
fnptr gp;
int use(fnptr q, int v) { int r; r = q(v); return r; }
int shadow() { int gp; int r; gp = 3; r = use(h, gp); return r; }
int main() {
  fnptr lp;
  int x;
  int y;
  lp = f;
  gp = lp;
  x = gp(5);
  y = use(gp, x);
  x = lp(y);
  y = shadow();
  printf("%d %d", x, y);
  return 0;
}
`

// TestTransformPinned pins Analyze and Transform output, verbatim, on the
// examples/funcptr program (Fig. 15) and on shadowSrc.
func TestTransformPinned(t *testing.T) {
	cases := []struct {
		name, src, pts string
		created        int
		out            string
	}{
		{"fig15", fig15Src, "map[main/p:map[f:true g:true]]", 1, `int f(int a, int b) {
  return a + b;
}

int g(int a, int b) {
  return a;
}

int main() {
  fnptr p;
  int x;
  int c;
  scanf("%d", &c);
  if (c > 0) {
    p = &f;
  } else {
    p = &g;
  }
  x = __dispatch_1(p, 1, 2);
  printf("%d", x);
  return 0;
}

int __dispatch_1(fnptr __p, int __a0, int __a1) {
  int __r;
  if (__p == &f) {
    __r = f(__a0, __a1);
  } else {
    __r = g(__a0, __a1);
  }
  return __r;
}
`},
		{"shadow", shadowSrc, "map[f/a:map[f:true] gp:map[f:true] h/a:map[f:true] main/lp:map[f:true] use/q:map[f:true h:true] use/v:map[f:true]]", 2, `fnptr gp;

int f(int a) {
  return a * 2;
}

int h(int a) {
  return a + 1;
}

int use(fnptr q, int v) {
  int r;
  r = __dispatch_1(q, v);
  return r;
}

int shadow() {
  int gp;
  int r;
  gp = 3;
  r = use(&h, gp);
  return r;
}

int main() {
  fnptr lp;
  int x;
  int y;
  lp = &f;
  gp = lp;
  x = __dispatch_2(gp, 5);
  y = use(gp, x);
  x = __dispatch_2(lp, y);
  y = shadow();
  printf("%d %d", x, y);
  return 0;
}

int __dispatch_1(fnptr __p, int __a0) {
  int __r;
  if (__p == &f) {
    __r = f(__a0);
  } else {
    __r = h(__a0);
  }
  return __r;
}

int __dispatch_2(fnptr __p, int __a0) {
  int __r;
  __r = f(__a0);
  return __r;
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := lang.MustParse(tc.src)
			if got := fmt.Sprint(Analyze(prog)); got != tc.pts {
				t.Errorf("points-to = %s\nwant        %s", got, tc.pts)
			}
			out, created, err := Transform(prog)
			if err != nil {
				t.Fatal(err)
			}
			if created != tc.created {
				t.Errorf("created = %d, want %d", created, tc.created)
			}
			if got := lang.Print(out); got != tc.out {
				t.Errorf("Transform output:\n%s\nwant:\n%s", got, tc.out)
			}
		})
	}
}
