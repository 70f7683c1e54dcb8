% Witness cases for the coverage plans (tests/logic/test_cover_plan.py).
%
% Every clause for t/1 or t/2 below is run through the plan loop and the
% machine loop over every t/n example the constants c0..c3 can form, at
% every budget of the module, and must agree in bits, exhausted bits, ops
% and last_exhausted.  Each one is the shrunk form of a case that a
% deliberately broken plan loop got wrong while the module was written;
% a failure hypothesis finds later is shrunk and appended here.

p(c0, c0). p(c0, c1). p(c1, c2). p(c2, c2). p(c2, c0). p(c3, c1).
q(c0, c1, c1). q(c0, c2, c1). q(c1, c1, c1). q(c1, c0, c2). q(c2, c3, c3). q(c2, c3, c0).
f(c0). f(c2).
g(c1). g(c2).

% budget trips on the op after max_ops, and the tripping op is charged
t(A) :- p(A, B).
t(A) :- p(A, B), p(B, C), p(C, D), f(D).
% a variable first bound by a literal and repeated inside it is compared
t(A) :- p(B, B).
t(A) :- q(A, B, B).
t(A) :- p(A, B), p(B, B).
t(A) :- q(B, C, C), p(A, B).
% membership tests are entered, never resumed: backtracking skips them
t(A) :- f(A), g(A).
t(A) :- p(A, B), f(A), g(B).
t(A) :- p(A, B), f(B), g(B), p(B, C).
t(A) :- f(A), f(c0), g(c0).
% several bound positions take the composite index on that signature
t(A) :- q(A, B, c1).
t(A) :- p(A, B), q(A, B, C).
t(A) :- p(A, B), q(A, B, B).
% no bound position scans every fact, in insertion order
t(A) :- p(B, C), f(B), g(C).
t(A) :- q(B, C, D).
% a predicate nobody defined: one op when ground, none when open
t(A) :- nobody(A).
t(A) :- nobody(B).
t(A) :- p(A, B), nobody(B, c0).
% heads: constants, repeats, variables the body never mentions, no body
t(c0, A) :- p(A, B).
t(A, A) :- f(A).
t(A, B) :- p(A, B).
t(A, B) :- p(B, A), g(A).
t(A, c2).
t(A, B).
